package core

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

// The two tests here hold the rule that no lock is held across a call to
// another process: a peer that stops answering must park only the
// goroutine that called it. Each parks a real call on a blackHole and
// then requires every lock the calling side owns to be acquirable. They
// cover the locks and the calls that the paths they drive take; a lock
// held across a call on a path no test drives is not covered.

// blackHole is a peer that accepts connections, reads whatever arrives
// and never answers, so a call into it parks until the caller's deadline
// or until the hole closes.
type blackHole struct {
	ln    net.Listener
	first chan struct{} // receives once the first bytes arrive
	stop  sync.Once
	wg    sync.WaitGroup

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

func newBlackHole(t *testing.T) *blackHole {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &blackHole{ln: ln, first: make(chan struct{}, 1)}
	h.wg.Add(1)
	go h.accept()
	t.Cleanup(h.Close)
	return h
}

func (h *blackHole) Addr() string { return h.ln.Addr().String() }

func (h *blackHole) accept() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			conn.Close()
			return
		}
		h.conns = append(h.conns, conn)
		h.wg.Add(1)
		h.mu.Unlock()
		go func() {
			defer h.wg.Done()
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
				select {
				case h.first <- struct{}{}:
				default:
				}
			}
		}()
	}
}

// Close shuts the listener and every accepted connection, failing the
// calls parked on them, and joins the hole's goroutines.
func (h *blackHole) Close() {
	h.stop.Do(func() {
		h.ln.Close()
		h.mu.Lock()
		h.closed = true
		for _, conn := range h.conns {
			conn.Close()
		}
		h.mu.Unlock()
		h.wg.Wait()
	})
}

// awaitCall waits for the first request bytes to reach the hole.
func (h *blackHole) awaitCall(t *testing.T) {
	t.Helper()
	select {
	case <-h.first:
	case <-time.After(5 * time.Second):
		t.Fatal("no call reached the black hole within 5 s")
	}
}

// probeLocks runs each probe, which takes one lock and releases it, and
// fails the test for every probe that does not finish within 500 ms. It
// returns a join that waits for the probes still blocked, once the parked
// call has been failed.
func probeLocks(t *testing.T, probes map[string]func()) (join func()) {
	t.Helper()
	var wg sync.WaitGroup
	for name, probe := range probes {
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(500 * time.Millisecond):
			t.Errorf("%s is held while a call is parked on a peer that never answers", name)
		}
	}
	return wg.Wait
}

// TestParkedHintHoldsNoServerLock parks replica warming's hint on a peer
// that never answers. The demand read it follows, which ran its one-chunk
// fill on its own handler, must return well inside the peer call's
// timeout: the hint goes behind the reply. While the hint is parked every
// server lock — the single-flight mutex, the peer wiring and the cache
// store's index — must be free.
func TestParkedHintHoldsNoServerLock(t *testing.T) {
	pfs := t.TempDir()
	paths := writePFS(t, pfs, 1, 32<<10)
	servers, cli := startCluster(t, pfs, 1, func(cfg *ServerConfig) { cfg.Replicas = 2 }, nil)
	s := servers[0]
	hole := newBlackHole(t)
	// Two peers and two replicas: every key's other home is the hole.
	s.SetPeers([]string{s.Addr(), hole.Addr()}, 0)

	start := time.Now()
	got, err := cli.ReadAll(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the cold read took %v: it waited on the hint to a peer that never answers", d)
	}
	if want := bytes.Repeat([]byte{0}, 32<<10); !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes that differ from the file's %d", len(got), len(want))
	}
	hole.awaitCall(t)
	join := probeLocks(t, map[string]func(){
		"Server.mu":     func() { s.mu.Lock(); s.mu.Unlock() },
		"Server.peerMu": func() { s.peerMu.Lock(); s.peerMu.Unlock() },
		"Store.mu":      func() { s.store.Len() },
	})
	hole.Close()
	join()
	settle(servers)
	if st := s.Stats(); st.ReplicaWarms != 0 {
		t.Fatalf("the hole accepted %d warm hints; it never answers", st.ReplicaWarms)
	}
}

// TestParkedReadHoldsNoClientLock parks a client's open on its only
// server, a peer that never answers. While it is parked the client's
// mutex must be free; once the server is gone the read falls back to the
// PFS.
func TestParkedReadHoldsNoClientLock(t *testing.T) {
	checkResources(t)
	pfs := t.TempDir()
	paths := writePFS(t, pfs, 1, 32<<10)
	hole := newBlackHole(t)
	c, err := NewClient(ClientConfig{Servers: []string{hole.Addr()}, DatasetDir: pfs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	type result struct {
		data []byte
		err  error
	}
	res := make(chan result, 1)
	go func() {
		data, err := c.ReadAll(paths[0])
		res <- result{data, err}
	}()
	hole.awaitCall(t)
	join := probeLocks(t, map[string]func(){
		"Client.mu": func() { c.mu.Lock(); c.mu.Unlock() },
	})
	hole.Close()
	join()
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.data) != 32<<10 {
			t.Fatalf("read %d bytes, want the file's %d", len(r.data), 32<<10)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the read did not return within 5 s of its server closing")
	}
	if st := c.Stats(); st.Fallbacks != 1 {
		t.Fatalf("client stats %+v, want the read to fall back to the PFS once", st)
	}
}
