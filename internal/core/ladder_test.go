package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hvac/internal/testutil"
	"hvac/internal/transport"
)

// ladderRig is one single-mover, single-demand-slot server whose cache
// holds exactly one object, behind an OpenPFS seam that counts every PFS
// pass and can hold chosen paths inside the mover: enough to put the
// server in each state the read ladder distinguishes and to see which
// rung paid for the bytes.
type ladderRig struct {
	t     *testing.T
	srv   *Server
	conn  *transport.Client
	paths []string // paths[0] is the object under test
	seg   int64    // segment size when the server caches in segments, else 0

	mu    sync.Mutex
	gates map[string]chan struct{} // held paths
	opens map[string]int           // PFS passes per path
	// entered receives a held path each time the seam blocks on it. Sized
	// to the dataset: every path is held at most once per case.
	entered chan string
	evicted int // times the object under test was pushed out of the cache
}

const ladderSize = 4096

func newLadderRig(t *testing.T, segmented, zeroCopy bool) *ladderRig {
	t.Helper()
	r := &ladderRig{t: t, gates: map[string]chan struct{}{}, opens: map[string]int{}, entered: make(chan string, 4)}
	if segmented {
		r.seg = ladderSize
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	r.paths = writePFS(t, pfsDir, 4, ladderSize)
	servers, _ := startCluster(t, pfsDir, 1, func(c *ServerConfig) {
		c.CacheCapacity = ladderSize + ladderSize/2
		c.Movers = 1
		c.demandQueue = 1
		c.SegmentSize = r.seg
		c.ZeroCopy = zeroCopy
		c.OpenPFS = func(path string) (*os.File, error) {
			r.mu.Lock()
			r.opens[path]++
			gate := r.gates[path]
			r.mu.Unlock()
			if gate != nil {
				r.entered <- path
				<-gate
			}
			return os.Open(path)
		}
	}, nil)
	r.srv = servers[0]
	r.conn = transport.Dial(r.srv.Addr())
	// Registered after startCluster's own cleanups, so it runs before them:
	// no mover is left parked in the seam when the server closes.
	t.Cleanup(func() {
		r.release()
		r.conn.Close()
	})
	return r
}

// task is the fill of path's cached object: the whole file, or segment 0.
func (r *ladderRig) task(path string) fetchTask {
	if r.seg > 0 {
		return fetchTask{key: segKey(path, 0), path: path, len: r.seg}
	}
	return fetchTask{key: path, path: path}
}

// fill caches path's object and waits for the commit.
func (r *ladderRig) fill(path string) {
	r.t.Helper()
	if fe, _ := r.srv.scheduleFetch(r.task(path), false); fe == nil {
		r.t.Fatalf("prefetch of %s was dropped", path)
	}
	r.srv.WaitIdle()
	if !r.srv.store.Resident(r.task(path).key) {
		r.t.Fatalf("%s not resident after its fill", path)
	}
}

// evict pushes the object under test out by filling a second one into the
// one-object cache.
func (r *ladderRig) evict() {
	r.t.Helper()
	r.fill(r.paths[1])
	if r.srv.store.Resident(r.task(r.paths[0]).key) {
		r.t.Fatal("the object under test survived the eviction")
	}
	r.evicted++
}

// hold parks the mover's next PFS open of each path until release.
func (r *ladderRig) hold(paths ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range paths {
		r.gates[p] = make(chan struct{})
	}
}

func (r *ladderRig) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for p, gate := range r.gates {
		close(gate)
		delete(r.gates, p)
	}
}

// saturate leaves the demand queue full: the one mover parked inside the
// fill of one spare file, a second spare's fill occupying the one slot.
func (r *ladderRig) saturate() {
	r.t.Helper()
	r.hold(r.paths[2], r.paths[3])
	if fe, _ := r.srv.scheduleFetch(r.task(r.paths[2]), true); fe == nil {
		r.t.Fatal("first spare fill refused")
	}
	<-r.entered // the mover took it off the queue
	if fe, _ := r.srv.scheduleFetch(r.task(r.paths[3]), true); fe == nil {
		r.t.Fatal("second spare fill refused")
	}
}

// attach starts read while the object's fill is held in the mover and
// returns once the reader is past the lease rung (the index counted its
// miss), so that after release the read is served from the fill as it
// lands — or, if the fill wins the race to commit, from the committed
// entry: both are the mover's one PFS pass. join returns what read did.
func (r *ladderRig) attach(read func() ([]byte, error)) (join func() ([]byte, error)) {
	_, missed, _ := r.srv.store.Stats()
	type result struct {
		b   []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		b, err := read()
		done <- result{b, err}
	}()
	for {
		if _, m, _ := r.srv.store.Stats(); m > missed {
			break
		}
		runtime.Gosched()
	}
	return func() ([]byte, error) {
		res := <-done
		return res.b, res.err
	}
}

func (r *ladderRig) call(req *transport.Request) (*transport.Response, error) {
	resp, err := r.conn.Call(req)
	if err != nil {
		return nil, err
	}
	if !resp.OK() {
		defer resp.Release()
		return nil, resp.Error()
	}
	return resp, nil
}

// ladderOp is one wire read op as a pair of phases: open is whatever the
// op does before it moves bytes (OpOpen; a batch's pass 1; nothing for
// OpReadAt), read is the framing wrapper over the resolver.
type ladderOp struct {
	name      string
	segmented bool
	// warm: open must find the object resident (a handle opened warm);
	// cold: it must not. The other ops' first phase runs wherever the
	// state puts it.
	warm, cold bool
	open       func(r *ladderRig) error
	read       func(r *ladderRig) ([]byte, error)
}

func ladderOps() []ladderOp {
	var fd int64
	openHandle := func(r *ladderRig) error {
		resp, err := r.call(&transport.Request{Op: transport.OpOpen, Path: r.paths[0]})
		if err != nil {
			return err
		}
		defer resp.Release()
		if resp.Size != ladderSize {
			return fmt.Errorf("open reported %d bytes, want %d", resp.Size, ladderSize)
		}
		fd = resp.Handle
		return nil
	}
	readHandle := func(r *ladderRig) ([]byte, error) {
		// A buffer larger than the file: the read is bounded by the handle.
		resp, err := r.call(&transport.Request{Op: transport.OpRead, Handle: fd, Len: 2 * ladderSize})
		if err != nil {
			return nil, err
		}
		got := bytes.Clone(resp.Data)
		resp.Release()
		resp, err = r.call(&transport.Request{Op: transport.OpClose, Handle: fd})
		if err != nil {
			return nil, err
		}
		resp.Release()
		return got, nil
	}
	var planned batchEntry
	return []ladderOp{
		{name: "OpRead/opened-warm", warm: true, open: openHandle, read: readHandle},
		{name: "OpRead/opened-cold", cold: true, open: openHandle, read: readHandle},
		{
			name: "OpReadAt", segmented: true,
			open: func(*ladderRig) error { return nil },
			read: func(r *ladderRig) ([]byte, error) {
				resp, err := r.call(&transport.Request{Op: transport.OpReadAt, Path: r.paths[0], Len: ladderSize})
				if err != nil {
					return nil, err
				}
				defer resp.Release()
				return bytes.Clone(resp.Data), nil
			},
		},
		{
			// The two passes of handleReadBatch over a one-entry batch, run
			// apart so a state can change between them.
			name: "OpReadBatch",
			open: func(r *ladderRig) error {
				planned = r.srv.planBatchEntry(r.paths[0], false, transport.BatchResponseBudget)
				if planned.status != transport.StatusOK {
					return fmt.Errorf("pass 1: status %d: %s", planned.status, planned.msg)
				}
				return nil
			},
			read: func(r *ladderRig) ([]byte, error) {
				frame := r.srv.serveBatchEntry(nil, r.paths[0], &planned)
				res, err := transport.DecodeBatchResults(frame, 1)
				if err != nil {
					return nil, err
				}
				if !res[0].OK() {
					return nil, fmt.Errorf("entry status %d: %s", res[0].Status, res[0].Err)
				}
				return res[0].Data, nil
			},
		},
	}
}

// TestReadLadderThroughEveryWrapper drives each read op over the five
// states the resolver distinguishes and checks what every caller of it is
// owed: the PFS copy's bytes, one side of the served identity bumped per
// serve, and no PFS pass beyond the one the state makes necessary.
func TestReadLadderThroughEveryWrapper(t *testing.T) {
	type state struct {
		name string
		// run arranges the state around op's two phases and returns what
		// the read returned.
		run func(r *ladderRig, op ladderOp) ([]byte, error)
		// hit is the sourcing verdict each op of ladderOps must count, in
		// order: a handle's is settled at open, a batch entry registered as
		// a miss in pass 1 stays a read-through whichever rung serves it.
		hit [4]bool
		// rejects: the demand queue must have refused this read's fetch.
		rejects bool
	}
	// open runs op's first phase; a handle opened warm first gets its
	// object cached.
	open := func(r *ladderRig, op ladderOp) error {
		if op.warm {
			r.fill(r.paths[0])
		}
		return op.open(r)
	}
	states := []state{
		{
			name: "resident",
			run: func(r *ladderRig, op ladderOp) ([]byte, error) {
				if !op.warm && !op.cold {
					r.fill(r.paths[0])
				}
				if err := open(r, op); err != nil {
					return nil, err
				}
				r.srv.WaitIdle() // the cold open's own fill
				return op.read(r)
			},
			hit: [4]bool{true, false, true, true},
		},
		{
			name: "fill in flight",
			run: func(r *ladderRig, op ladderOp) ([]byte, error) {
				if op.warm {
					if err := open(r, op); err != nil {
						return nil, err
					}
					r.evict()
					r.hold(r.paths[0]) // the read registers the fetch itself
				} else {
					r.hold(r.paths[0])
					if err := open(r, op); err != nil {
						return nil, err
					}
				}
				join := r.attach(func() ([]byte, error) { return op.read(r) })
				r.release()
				return join()
			},
			hit: [4]bool{true, false, false, false},
		},
		{
			name: "fill committed before the reader attaches",
			run: func(r *ladderRig, op ladderOp) ([]byte, error) {
				if err := open(r, op); err != nil {
					return nil, err
				}
				if op.warm {
					r.evict()
				}
				// Whoever registered the miss — the open, pass 1, or here a
				// hint standing in for an earlier reader — the fill is done
				// and retired by the time the read runs.
				r.fill(r.paths[0])
				return op.read(r)
			},
			hit: [4]bool{true, false, true, false},
		},
		{
			name: "demand queue full",
			run: func(r *ladderRig, op ladderOp) ([]byte, error) {
				if op.warm {
					if err := open(r, op); err != nil {
						return nil, err
					}
					r.evict()
					r.saturate()
				} else {
					r.saturate()
					if err := open(r, op); err != nil {
						return nil, err
					}
				}
				got, err := op.read(r)
				r.release()
				return got, err
			},
			hit:     [4]bool{true, false, false, false},
			rejects: true,
		},
		{
			name: "evicted between the open and the read",
			run: func(r *ladderRig, op ladderOp) ([]byte, error) {
				if !op.warm && !op.cold {
					r.fill(r.paths[0])
				}
				if err := open(r, op); err != nil {
					return nil, err
				}
				r.srv.WaitIdle()
				r.evict()
				return op.read(r)
			},
			hit: [4]bool{true, false, false, false},
		},
	}

	for _, zc := range []bool{false, true} {
		for _, st := range states {
			for i, op := range ladderOps() {
				t.Run(fmt.Sprintf("zerocopy=%v/%s/%s", zc, st.name, op.name), func(t *testing.T) {
					r := newLadderRig(t, op.segmented, zc)
					want, err := os.ReadFile(r.paths[0])
					if err != nil {
						t.Fatal(err)
					}
					got, err := st.run(r, op)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("read %d bytes that differ from the PFS copy's %d", len(got), len(want))
					}
					r.srv.WaitIdle()

					ss := r.srv.Stats()
					served := ss.Opens + ss.BatchEntries
					if op.segmented {
						served += ss.Reads
					}
					if ss.Hits+ss.ReadThroughs != served || served != 1 {
						t.Fatalf("hits(%d)+readthroughs(%d) != served(%d), want one serve; stats %+v", ss.Hits, ss.ReadThroughs, served, ss)
					}
					if (ss.Hits == 1) != st.hit[i] {
						t.Fatalf("verdict: hits=%d readthroughs=%d, want hit=%v", ss.Hits, ss.ReadThroughs, st.hit[i])
					}
					if (ss.DemandRejects > 0) != st.rejects {
						t.Fatalf("demand rejects = %d, want some: %v", ss.DemandRejects, st.rejects)
					}
					// One PFS pass caches the object; each time it was pushed
					// out afterwards, exactly one more brings the bytes back —
					// the refill's, or the handler's own when the queue is full.
					r.mu.Lock()
					opens := r.opens[r.paths[0]]
					r.mu.Unlock()
					if opens != 1+r.evicted {
						t.Fatalf("%d PFS opens of the object, want %d", opens, 1+r.evicted)
					}
					if zc && ss.ZeroCopySends+ss.ZeroCopyFallbacks != ss.ZeroCopyEligible {
						t.Fatalf("zerocopy sends(%d)+fallbacks(%d) != eligible(%d)", ss.ZeroCopySends, ss.ZeroCopyFallbacks, ss.ZeroCopyEligible)
					}
				})
			}
		}
	}
}

// TestNegativeOffsetRefused: a read at a negative offset is refused where
// it is first seen. File.ReadAt answers it locally, so the handle stays
// remote and nothing degrades; the server refuses a raw OpRead or
// OpReadAt before the resolver, so a warm key hands sendfile nothing and a
// cold one costs no PFS open.
func TestNegativeOffsetRefused(t *testing.T) {
	const size = 2 * zeroCopyMin // a warm read of zeroCopyMin leaves by sendfile
	for _, segmented := range []bool{false, true} {
		t.Run(fmt.Sprintf("segmented=%v", segmented), func(t *testing.T) {
			pfsDir := filepath.Join(t.TempDir(), "dataset")
			p := writePFS(t, pfsDir, 1, size)[0]
			var opens *sync.Map
			seg := int64(0)
			if segmented {
				seg = size
			}
			servers, cli := startCluster(t, pfsDir, 1, func(c *ServerConfig) {
				c.ZeroCopy = true
				c.SegmentSize = seg
				opens = countingOpens(c)
			}, func(c *ClientConfig) { c.SegmentSize = seg })
			srv := servers[0]

			f, err := cli.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, size)
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			settle(servers)
			pfsOpens, eligible := opensOf(opens, p), srv.Stats().ZeroCopyEligible

			if n, err := f.ReadAt(buf, -1); err == nil || n != 0 {
				t.Fatalf("ReadAt(p, -1) = %d, %v; want 0 and an error", n, err)
			}
			if st := cli.Stats(); st.Degrades != 0 || !f.Remote() {
				t.Fatalf("a refused offset degraded the handle: degrades=%d remote=%v", st.Degrades, f.Remote())
			}

			conn := transport.Dial(srv.Addr())
			defer conn.Close()
			op, req := "OpReadAt", &transport.Request{Op: transport.OpReadAt, Path: p, Off: -1, Len: zeroCopyMin}
			if !segmented {
				open, err := conn.Call(&transport.Request{Op: transport.OpOpen, Path: p})
				if err != nil {
					t.Fatal(err)
				}
				op, req = "OpRead", &transport.Request{Op: transport.OpRead, Handle: open.Handle, Off: -1, Len: zeroCopyMin}
				open.Release()
			}
			resp, err := conn.Call(req)
			if err != nil {
				t.Fatalf("%s at offset -1: %v, want a StatusError response", op, err)
			}
			status := resp.Status
			resp.Release()
			if status != transport.StatusError {
				t.Fatalf("%s at offset -1: status %d, want StatusError", op, status)
			}
			settle(servers)
			if got := opensOf(opens, p); got != pfsOpens {
				t.Fatalf("the refused read cost %d PFS opens", got-pfsOpens)
			}
			if got := srv.Stats().ZeroCopyEligible; got != eligible {
				t.Fatalf("the refused read reached sendfile: eligible %d -> %d", eligible, got)
			}
		})
	}
}

// TestReadRacingCloseLeavesNothingBehind closes a handle while a read on
// it is parked on the handle's fill. A handle owns no descriptor and no
// claim on its cache entry, so the close has nothing to tear down and the
// read nothing to lose: the read completes with the file's bytes, the
// entry stays evictable, and once it is evicted no descriptor on its
// cache file is left open. (With descriptors and index pins held by the
// handle, this interleaving leaked both: ROADMAP, PR 13.)
func TestReadRacingCloseLeavesNothingBehind(t *testing.T) {
	r := newLadderRig(t, false, false)
	want, err := os.ReadFile(r.paths[0])
	if err != nil {
		t.Fatal(err)
	}
	r.hold(r.paths[0])
	open, err := r.call(&transport.Request{Op: transport.OpOpen, Path: r.paths[0]})
	if err != nil {
		t.Fatal(err)
	}
	fd := open.Handle
	open.Release()

	join := r.attach(func() ([]byte, error) {
		resp, err := r.call(&transport.Request{Op: transport.OpRead, Handle: fd, Len: ladderSize})
		if err != nil {
			return nil, err
		}
		defer resp.Release()
		return bytes.Clone(resp.Data), nil
	})
	closeResp, err := r.call(&transport.Request{Op: transport.OpClose, Handle: fd})
	if err != nil {
		t.Fatal(err)
	}
	closeResp.Release()
	r.release()
	got, err := join()
	if err != nil {
		t.Fatalf("the read in flight when its handle closed: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the read in flight when its handle closed differs from the PFS copy")
	}
	if _, err := r.call(&transport.Request{Op: transport.OpRead, Handle: fd, Len: ladderSize}); err == nil || !strings.Contains(err.Error(), "bad handle") {
		t.Fatalf("a read on the closed handle: %v, want a bad-handle error", err)
	}

	r.srv.WaitIdle()
	r.evict() // fails the test if the closed handle's entry cannot go
	fds, _ := testutil.OpenFDs(r.srv.store.Dir())
	for _, target := range fds {
		if strings.HasSuffix(target, "(deleted)") {
			t.Fatalf("descriptor still open on the evicted entry's unlinked file: %s", target)
		}
	}
	if ss := r.srv.Stats(); ss.Opens != 1 || ss.Closes != 1 || ss.Hits+ss.ReadThroughs != 1 {
		t.Fatalf("accounting: %+v, want one open, one close, one serve", ss)
	}
}

// TestServerCloseReleasesParkedReaders closes the server while a read is
// parked on a fill whose PFS open does not return. The close ends the
// read's wait: the read fails within 2 s, while the fill is still held, for
// each op that can park on a fill — a whole-file read on a handle opened
// cold, a segment read and a batch entry.
func TestServerCloseReleasesParkedReaders(t *testing.T) {
	for _, op := range ladderOps() {
		if op.warm {
			continue
		}
		t.Run(op.name, func(t *testing.T) {
			r := newLadderRig(t, op.segmented, false)
			r.hold(r.paths[0])
			if err := op.open(r); err != nil {
				t.Fatal(err)
			}
			join := r.attach(func() ([]byte, error) { return op.read(r) })
			<-r.entered // the fill the read waits on is parked in the mover
			closed := make(chan struct{})
			go func() {
				r.srv.Close()
				close(closed)
			}()
			failed := make(chan error, 1)
			go func() {
				_, err := join()
				failed <- err
			}()
			select {
			case err := <-failed:
				if err == nil {
					t.Fatal("the parked read returned bytes from a closing server while its fill was held")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the parked read outlived Server.Close by 2 s: it waits on the fill alone")
			}
			r.release()
			<-closed
		})
	}
}
