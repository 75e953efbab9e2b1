// Package ownerfix exercises the ownerpass analyzer: every function in
// this file violates a resource-release protocol on at least one path.
package ownerfix

import (
	"errors"
	"os"

	"hvac/internal/cachestore"
	"hvac/internal/transport"
)

var errTooBig = errors.New("ownerfix: too big")

func use(b []byte) int { return len(b) }

// leakOnErrorPath releases only on the happy path: the !resp.OK()
// return leaks the pooled response.
func leakOnErrorPath(t transport.Transport) error {
	resp, err := t.Call(&transport.Request{Op: transport.OpPing}) // want "pooled response .* may leak"
	if err != nil {
		return err
	}
	if !resp.OK() {
		return errTooBig
	}
	resp.Release()
	return nil
}

// leakBuffer forgets the buffer on the early return.
func leakBuffer(n int) error {
	buf := transport.GetBuffer(n) // want "pooled buffer from transport.GetBuffer may leak"
	if n > 1<<20 {
		return errTooBig
	}
	use(buf)
	transport.PutBuffer(buf)
	return nil
}

// doubleRelease releases the same response twice; the second call
// would recycle a payload another caller may already hold.
func doubleRelease(t transport.Transport) {
	resp, err := t.Call(&transport.Request{Op: transport.OpPing})
	if err != nil {
		return
	}
	resp.Release()
	resp.Release() // want "double release"
}

// discardResponse drops the response without ever binding it.
func discardResponse(t transport.Transport) {
	_, _ = t.Call(&transport.Request{Op: transport.OpPing}) // want "pooled response .* is discarded"
}

type holder struct {
	resp *transport.Response
}

// escapeField parks the response in a struct field: the release
// obligation silently moves to whoever owns the holder.
func escapeField(h *holder, t transport.Transport) {
	resp, err := t.Call(&transport.Request{Op: transport.OpPing})
	if err != nil {
		return
	}
	h.resp = resp // want "pooled response .* escapes to a long-lived location"
}

var lastResp *transport.Response

// escapeGlobal parks the response in a package-level variable.
func escapeGlobal(t transport.Transport) {
	resp, err := t.Call(&transport.Request{Op: transport.OpPing})
	if err != nil {
		return
	}
	lastResp = resp // want "pooled response .* escapes to a long-lived location"
}

// escapeGoroutine captures the buffer in a goroutine that never
// returns it to the pool.
func escapeGoroutine(n int) {
	buf := transport.GetBuffer(n)
	go func() { // want "pooled buffer .* escapes into a goroutine"
		use(buf)
	}()
}

// fillLeak abandons the in-progress fill on the write-error path:
// neither Commit nor Abort runs, so the entry stays filling forever.
func fillLeak(s *cachestore.Store, key string, src *os.File, size int64) error {
	fl, err := s.PutWriter(key, size) // want "in-progress fill .* may leak"
	if err != nil {
		return err
	}
	if _, err := fl.CopyFrom(src, 0, size); err != nil {
		return err
	}
	return fl.Commit()
}

// fillRefLeak takes a read reference and returns without dropping it,
// pinning the entry against eviction.
func fillRefLeak(fl *cachestore.Fill, p []byte) int {
	if fl.Acquire() { // want "fill reference .* may leak"
		n, _ := fl.ReadAt(p, 0)
		return n
	}
	return 0
}

// leaseLeakOnError leases the cached file for a zero-copy serve but
// leaks the lease when the read fails: the fd stays pinned in the
// handle pool and an evicted file can never close.
func leaseLeakOnError(s *cachestore.Store, key string, p []byte) (int, error) {
	lz, err := s.Lease(key) // want "fd lease .* may leak"
	if err != nil {
		return 0, err
	}
	n, rerr := lz.ReadAt(p, 0)
	if rerr != nil {
		return 0, rerr
	}
	lz.Release()
	return n, nil
}

// leaseDoubleRelease violates the protocol even though the runtime
// guard happens to tolerate it: releasing twice is a latent bug once a
// second holder recycles the pooled Lease struct in between.
func leaseDoubleRelease(s *cachestore.Store, key string) {
	lz, err := s.Lease(key)
	if err != nil {
		return
	}
	lz.Release()
	lz.Release() // want "double release"
}
