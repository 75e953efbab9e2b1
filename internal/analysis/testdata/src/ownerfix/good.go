package ownerfix

import (
	"os"

	"hvac/internal/cachestore"
	"hvac/internal/transport"
)

// deferRelease is the canonical idiom: err-guarded acquisition, defer
// release, every later path covered.
func deferRelease(t transport.Transport) (int64, error) {
	resp, err := t.Call(&transport.Request{Op: transport.OpStat, Path: "f"})
	if err != nil {
		return 0, err
	}
	defer resp.Release()
	if !resp.OK() {
		return 0, resp.Error()
	}
	return resp.Size, nil
}

// bufferRoundTrip releases the buffer on the straight-line path.
func bufferRoundTrip(n int) int {
	buf := transport.GetBuffer(n)
	m := use(buf)
	transport.PutBuffer(buf)
	return m
}

// returnDirect hands the call's response straight to the caller: the
// obligation transfers with the return value.
func returnDirect(t transport.Transport) (*transport.Response, error) {
	return t.Call(&transport.Request{Op: transport.OpPing})
}

// returnBound transfers a bound response to the caller after vetting.
func returnBound(t transport.Transport) (*transport.Response, error) {
	resp, err := t.Call(&transport.Request{Op: transport.OpPing})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// sendTransfer moves the response into a channel; the receiver now
// owns the release.
func sendTransfer(t transport.Transport, out chan<- *transport.Response) error {
	resp, err := t.Call(&transport.Request{Op: transport.OpPing})
	if err != nil {
		return err
	}
	out <- resp
	return nil
}

// finish releases a response defensively. The analyzer infers that
// every non-nil path releases, so callers of finish hand ownership
// over — no annotation needed.
func finish(resp *transport.Response) {
	if resp != nil {
		resp.Release()
	}
}

// helperTransfer releases through finish: interprocedural summary
// inference recognizes the transfer.
func helperTransfer(t transport.Transport) error {
	resp, err := t.Call(&transport.Request{Op: transport.OpPing})
	if err != nil {
		return err
	}
	finish(resp)
	return nil
}

// consume takes ownership of b and recycles it. []byte parameters are
// too generic for inference, so the transfer is declared explicitly.
//
//hvac:owns b
func consume(b []byte) int {
	n := use(b)
	transport.PutBuffer(b)
	return n
}

// annotatedTransfer hands the buffer to the annotated consumer.
func annotatedTransfer(n int) int {
	buf := transport.GetBuffer(n)
	return consume(buf)
}

// goRelease moves the buffer into a goroutine that visibly returns it
// to the pool: ownership transfer, not an escape.
func goRelease(n int) {
	buf := transport.GetBuffer(n)
	go func() {
		use(buf)
		transport.PutBuffer(buf)
	}()
}

// fillCommit drives the fill protocol correctly: Abort on the error
// path, Commit on success.
func fillCommit(s *cachestore.Store, key string, src *os.File, size int64) error {
	fl, err := s.PutWriter(key, size)
	if err != nil {
		return err
	}
	if _, err := fl.CopyFrom(src, 0, size); err != nil {
		fl.Abort(err)
		return err
	}
	return fl.Commit()
}

// fillRead is the guarded read-reference idiom from the server's warm
// path: the short-circuit guarantees Acquire ran iff the body runs.
func fillRead(fl *cachestore.Fill, p []byte) int {
	if fl != nil && fl.Acquire() {
		n, _ := fl.ReadAt(p, 0)
		fl.Release()
		return n
	}
	return 0
}

// leaseRead is the zero-copy serve idiom: err-guarded lease, released
// on every later path.
func leaseRead(s *cachestore.Store, key string, p []byte) (int, error) {
	lz, err := s.Lease(key)
	if err != nil {
		return 0, err
	}
	defer lz.Release()
	return lz.ReadAt(p, 0)
}

// leaseHandoff returns the lease to the caller: the release obligation
// transfers with the return value.
func leaseHandoff(s *cachestore.Store, key string) (*cachestore.Lease, error) {
	return s.Lease(key)
}
