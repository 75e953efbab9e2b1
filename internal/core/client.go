package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"hvac/internal/place"
	"hvac/internal/slab"
	"hvac/internal/transport"
)

// ClientConfig configures a real-mode HVAC client.
type ClientConfig struct {
	// Servers are the HVAC server addresses of the job allocation, in
	// allocation order; placement hashes over this list.
	Servers []string
	// DatasetDir is the PFS directory whose reads are redirected —
	// the HVAC_DATASET_DIR contract (§III-C). Paths outside it pass
	// through to the local file system untouched.
	DatasetDir string
	// Replicas > 1 enables the §III-H failover design: if the home server
	// is unreachable the client tries the next replica before falling
	// back to the PFS.
	Replicas int
	// CallTimeout bounds each RPC attempt so a hung server cannot stall
	// the training loop; 0 means transport.DefaultCallTimeout, negative
	// disables the deadline.
	CallTimeout time.Duration
	// DialTransport overrides how a server link is established — the seam
	// the fault-injection harness decorates. Nil means transport.DialWith
	// with CallTimeout and the transport's default retry budget.
	DialTransport func(addr string) transport.Transport

	// disableFallback makes server failures hard errors instead of
	// falling back to direct PFS reads. Only this package's tests set it,
	// so a failure they inject cannot hide behind a successful PFS read.
	disableFallback bool
}

// ClientStats counts client-side activity. One Open counts exactly one of
// Redirected, Passthrough, or Fallbacks — the identity runChaosCase
// checks after every chaos schedule as Redirected + Fallbacks == opens +
// BatchFallbacks (a degraded batch entry is re-read through its own Open).
type ClientStats struct {
	Redirected     int64 // opens served via HVAC
	Passthrough    int64 // opens outside the dataset dir
	Fallbacks      int64 // opens that fell back to the PFS after server failure
	Degrades       int64 // redirected handles demoted to PFS mid-read (§III-H)
	Failovers      int64 // opens (or mid-read handle migrations) served by a non-primary replica
	Retries        int64 // transport-level retry attempts spent across all server links
	BatchReads     int64 // files served through a scatter-gather OpReadBatch entry
	BatchFallbacks int64 // batch entries that degraded to per-file or PFS reads
	BytesRead      int64
}

// Client is a real-mode HVAC client: the Go equivalent of the LD_PRELOAD
// interposition library (see DESIGN.md for the substitution argument).
type Client struct {
	cfg ClientConfig
	// datasetPrefix is cfg.DatasetDir with a trailing separator: what
	// Intercepts matches every path against.
	datasetPrefix string
	conns         []transport.Transport
	view          *place.View

	mu    sync.Mutex
	stats ClientStats
}

// NewClient builds a client for the given configuration.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Servers) == 0 {
		return nil, errors.New("core: ClientConfig.Servers is empty")
	}
	if cfg.DatasetDir == "" {
		return nil, errors.New("core: ClientConfig.DatasetDir is required")
	}
	abs, err := filepath.Abs(cfg.DatasetDir)
	if err != nil {
		return nil, err
	}
	cfg.DatasetDir = abs
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	dial := cfg.DialTransport
	if dial == nil {
		opts := transport.ClientOptions{CallTimeout: cfg.CallTimeout}
		dial = func(addr string) transport.Transport { return transport.DialWith(addr, opts) }
	}
	c := &Client{
		cfg:           cfg,
		datasetPrefix: cfg.DatasetDir + string(filepath.Separator),
		view:          place.NewView(place.ModHash{}, len(cfg.Servers)),
	}
	for _, addr := range cfg.Servers {
		c.conns = append(c.conns, dial(addr))
	}
	return c, nil
}

// View returns the client's membership view: the versioned server set
// placement hashes over. Leave/Join on it reroute subsequent opens away
// from (or back to) a member without restarting the job; an unchanged
// view places exactly like the paper's ModHash.
func (c *Client) View() *place.View { return c.view }

// Stats returns a snapshot of client counters. Retries is gathered live
// from the server links (each transport keeps its own retry budget).
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	for _, conn := range c.conns {
		if rc, ok := conn.(interface{ Retries() int64 }); ok {
			st.Retries += rc.Retries()
		}
	}
	return st
}

// Close releases all server connections, which first sends the handle
// closes still queued on them. No call of the client's leaves work
// running after it returns, so there is nothing else to join.
func (c *Client) Close() {
	for _, conn := range c.conns {
		conn.Close()
	}
}

// Intercepts reports whether path falls under the dataset directory and
// would be redirected — the preload library's path test.
func (c *Client) Intercepts(path string) bool {
	abs, err := filepath.Abs(path)
	if err != nil {
		return false
	}
	return abs == c.cfg.DatasetDir || strings.HasPrefix(abs, c.datasetPrefix)
}

// Home returns the index of the server that homes path under the
// current membership view. It places the absolute path, as Open does.
func (c *Client) Home(path string) int {
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	return c.view.Place(path)
}

// File is a read-only remote file handle served by an HVAC server, or a
// fallback PFS handle. It implements io.Reader, io.ReaderAt and io.Closer.
type File struct {
	c        *Client
	conn     transport.Transport
	handle   int64
	size     int64
	path     string
	off      int64
	fallback *os.File
	closed   bool
	mu       sync.Mutex

	// replicas is the file's replica ladder (server indices, primary
	// first) fixed at open time; srv is the member currently serving the
	// handle. A mid-read failover migrates (conn, handle, srv) — under mu
	// — to the replica that answered.
	replicas []int
	srv      int
}

// Open opens path through HVAC: redirected to its home server when under
// the dataset dir, passed through to the OS otherwise, with PFS fallback
// on server failure (unless disabled).
func (c *Client) Open(path string) (*File, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, err
	}
	if !c.Intercepts(abs) {
		f, err := os.Open(abs) //hvac:pfs-fallback passthrough: path is outside the dataset dir, so the §III-C contract does not redirect it
		if err != nil {
			return nil, err
		}
		c.bump(func(s *ClientStats) { s.Passthrough++ })
		return &File{c: c, fallback: f, path: abs}, nil
	}

	// The open walks the file's replica ladder and leaves a handle on the
	// server that answers.
	req := &transport.Request{Op: transport.OpOpen, Path: abs}
	replicas := c.view.Replicas(abs, c.cfg.Replicas)
	rungs := make([]func() rungResult, len(replicas))
	for i, srv := range replicas {
		// final: an application error (e.g. file absent on the PFS) is one
		// every replica would give.
		rungs[i] = c.rung(i, srv, req, true)
	}
	r := ladderCall(rungs)
	if r.resp != nil {
		size := r.resp.Size
		r.resp.Release()
		c.bump(func(s *ClientStats) {
			s.Redirected++
			if r.ladder > 0 {
				s.Failovers++
			}
		})
		return &File{c: c, conn: r.conn, handle: r.handle, size: size, path: abs, replicas: replicas, srv: r.srv}, nil
	}
	if c.cfg.disableFallback {
		return nil, fmt.Errorf("hvac client: open %s: %w", abs, r.err)
	}
	f, err := os.Open(abs) //hvac:pfs-fallback designated open fallback: every replica failed (§III-H)
	if err != nil {
		return nil, fmt.Errorf("hvac client: open %s: server(s) failed (%v) and PFS fallback failed: %w", abs, r.err, err)
	}
	c.bump(func(s *ClientStats) { s.Fallbacks++ })
	return &File{c: c, fallback: f, path: abs}, nil
}

func (c *Client) bump(f func(*ClientStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// rungResult is one rung's outcome on a replica ladder. A rung normalises
// failures before returning: a non-OK response is released inside the
// rung and surfaces as err (appErr marks server-side application errors,
// which stop the ladder — the server is alive, the request is just
// unserveable). On success resp is owned by the receiver; opened marks a
// live server-side handle (conn, handle) the receiver must adopt.
type rungResult struct {
	resp   *transport.Response
	err    error
	ladder int // index into the ladder
	srv    int // server index the rung spoke to
	conn   transport.Transport
	handle int64
	opened bool
	appErr bool
}

// rung builds one rung of a replica ladder: req sent to server srv, a
// non-OK response released and surfaced as err. final says such an answer
// is one every replica would give, so it stops the ladder (appErr). The
// rungs of a ladder may share req: Call only reads it.
func (c *Client) rung(i, srv int, req *transport.Request, final bool) func() rungResult {
	conn := c.conns[srv]
	return func() rungResult {
		resp, err := conn.Call(req)
		if err != nil {
			return rungResult{err: err, ladder: i, srv: srv}
		}
		if !resp.OK() {
			err = resp.Error()
			resp.Release()
			return rungResult{err: err, ladder: i, srv: srv, appErr: final}
		}
		return rungResult{resp: resp, ladder: i, srv: srv, conn: conn, handle: resp.Handle, opened: req.Op == transport.OpOpen}
	}
}

// ladderCall runs a replica ladder (§III-H), one rung at a time: the
// first success or application error ends it, a transport failure moves
// on to the next rung, and when every rung failed the last failure is the
// result. A rung has returned before the next one starts, so nothing of
// a failed rung is still running when the ladder moves on or returns.
func ladderCall(rungs []func() rungResult) rungResult {
	var last rungResult
	for _, rung := range rungs {
		last = rung()
		if last.resp != nil || last.appErr {
			return last
		}
	}
	return last
}

// retire closes a server-side handle nobody reads through any more,
// best-effort. A close is one-way and leaves with the link's next
// request, so retiring costs no round trip and no goroutine, even when
// the server is the one that just failed.
func retire(conn transport.Transport, handle int64) {
	if resp, err := conn.Call(&transport.Request{Op: transport.OpClose, Handle: handle}); err == nil {
		resp.Release()
	}
}

// Size returns the file size (0 for passthrough handles until read).
func (f *File) Size() int64 {
	if f.fallback != nil {
		if fi, err := f.fallback.Stat(); err == nil {
			return fi.Size()
		}
	}
	return f.size
}

// Path returns the opened path.
func (f *File) Path() string { return f.path }

// Remote reports whether the handle is served by an HVAC server.
func (f *File) Remote() bool { return f.fallback == nil }

// The bulk read plane of a remote handle. A read longer than
// bulkChunk moves as bulkChunk-sized ranged OpReads with bulkDepth of
// them in flight, each on its own pooled connection, each received
// straight into its own sub-slice of the caller's buffer. The sizes are
// measured, not tuned per deployment (DESIGN.md §3.1): a reply that
// outgrows the socket buffers turns sender and receiver into a park/wake
// ping-pong at twice the CPU per byte, and 512 KiB is the largest chunk
// that stays under that cliff on loopback TCP; a second chunk in flight
// hides the request round trip behind the first one's receive, a third
// only adds scheduling. The cliff is the socket's: once a reply comes back
// as a descriptor, which puts no payload in the socket, readBulk stops
// cutting at bulkChunk (DESIGN.md §3.1).
const (
	bulkChunk = 512 << 10
	bulkDepth = 2
)

// maxRead is the longest range a server answers in one read
// (server.go:checkRange).
const maxRead = transport.MaxFrame / 2

// ReadAt implements io.ReaderAt. If the serving HVAC server dies
// mid-file, the handle degrades to a direct PFS handle and the read
// continues — a training job survives server loss without noticing.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		// os.File refuses it too; sent on, the server would refuse it and
		// the refusal would degrade a healthy handle to the PFS.
		return 0, &os.PathError{Op: "readat", Path: f.path, Err: errors.New("negative offset")}
	}
	f.mu.Lock()
	closed, fb := f.closed, f.fallback
	f.mu.Unlock()
	if closed {
		// As os.File does, and before any RPC: a closed handle's read
		// would fail, and the replica ladder would answer it from a fresh
		// handle on the next rung.
		return 0, &os.PathError{Op: "read", Path: f.path, Err: os.ErrClosed}
	}
	if fb != nil {
		return fb.ReadAt(p, off)
	}
	// Whatever the pipeline could not deliver — a failed chunk, a short
	// one, or everything when the read is one chunk — goes through the
	// sequential loop below, the only owner of the retry ladder, replica
	// failover, degradeToPFS and EOF.
	total := 0
	if len(p) > bulkChunk {
		total = f.readBulk(p, off)
	}
	for total < len(p) {
		pos := off + int64(total)
		dst := p[total:min(total+bulkChunk, len(p))]
		resp, err := f.fetch(dst, pos)
		if err != nil {
			if f.c.cfg.disableFallback {
				return total, err
			}
			n, ferr := f.degradeToPFS(p[total:], pos)
			total += n
			if ferr == io.EOF {
				return total, io.EOF
			}
			if ferr != nil {
				return total, fmt.Errorf("hvac client: read %s: server failed (%v) and PFS fallback failed: %w", f.path, err, ferr)
			}
			return total, nil
		}
		n := landed(dst, resp)
		resp.Release()
		total += n
		f.c.bump(func(s *ClientStats) { s.BytesRead += int64(n) })
		if n < len(dst) {
			return total, io.EOF
		}
	}
	return total, nil
}

// landed reports how many payload bytes of resp are in dst, copying them
// there unless the decoder already received them in place (Request.Dst).
func landed(dst []byte, resp *transport.Response) int {
	data := resp.Data
	if len(data) > 0 && len(data) <= len(dst) && &data[0] == &dst[0] {
		return len(data)
	}
	return copy(dst, data)
}

// readBulk runs the chunk pipeline over p and returns the length of the
// contiguous prefix it delivered. bulkDepth workers — the caller and
// bulkDepth-1 goroutines joined before returning — claim chunks in
// order and read each through the handle as it stood at entry, with no
// failover of their own: the first failed or short chunk stops the
// claiming, and everything from there on is the caller's sequential loop.
//
// Chunks are bulkChunk long until a reply comes back as a descriptor
// (transport's descriptor plane, on the local socket): such a reply puts
// no payload in the socket, so the socket-buffer cliff bulkChunk keeps
// under is gone, and what is left unclaimed is split evenly over the
// workers — no piece shorter than a chunk or longer than a read can be.
func (f *File) readBulk(p []byte, off int64) int {
	f.mu.Lock()
	conn, handle := f.conn, f.handle
	f.mu.Unlock()
	var (
		mu    sync.Mutex
		next  int         // offset of the next byte to claim
		chunk = bulkChunk // length of the next claim
		bad   = len(p)    // start of the lowest failed or short chunk
		badN  int         // payload bytes the chunk at bad did deliver
	)
	work := func() {
		for {
			mu.Lock()
			lo := next
			if lo >= bad {
				mu.Unlock()
				return
			}
			hi := min(lo+chunk, len(p))
			next = hi
			mu.Unlock()
			dst := p[lo:hi]
			n, passed := 0, false
			resp, err := conn.Call(&transport.Request{
				Op: transport.OpRead, Handle: handle, Off: off + int64(lo), Len: int64(len(dst)), Dst: dst,
			})
			if err == nil {
				if resp.OK() {
					n, passed = landed(dst, resp), resp.Passed()
				}
				resp.Release()
			}
			mu.Lock()
			if n < len(dst) {
				if lo < bad {
					bad, badN = lo, n
				}
				mu.Unlock()
				return
			}
			if passed && chunk == bulkChunk {
				chunk = min(max((len(p)-next+bulkDepth-1)/bulkDepth, bulkChunk), maxRead)
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < bulkDepth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	// Chunks are claimed in order and every claimed chunk has finished, so
	// all of [0, bad) arrived whole.
	total := min(bad+badN, len(p))
	f.c.bump(func(s *ClientStats) { s.BytesRead += int64(total) })
	return total
}

// fetch reads the len(dst) bytes at off down the file's replica ladder.
// The payload is received straight into dst (the response's Data aliases
// it) when it fits, and comes back in a pooled buffer for the caller to
// copy out when it does not; landed tells the two apart. A failed rung may
// have landed bytes in dst too, but the rungs run one after another, so
// the one that answered wrote last and nothing writes after fetch returns.
//
// The first rung goes through the current handle; with Replicas > 1 the
// other replicas form failover rungs that open their own handle on path
// and read the same range. When one of those wins, the File migrates to
// its handle (the §III-H failover: later reads go straight to the live
// replica) and the old handle is retired.
func (f *File) fetch(dst []byte, off int64) (*transport.Response, error) {
	c := f.c
	f.mu.Lock()
	handle, cur := f.handle, f.srv
	f.mu.Unlock()
	req := &transport.Request{Op: transport.OpRead, Handle: handle, Off: off, Len: int64(len(dst)), Dst: dst}
	rungs := []func() rungResult{c.rung(0, cur, req, false)}
	for _, srv := range f.replicas {
		if srv == cur {
			continue
		}
		i, rconn := len(rungs), c.conns[srv]
		rungs = append(rungs, func() rungResult {
			o := c.rung(i, srv, &transport.Request{Op: transport.OpOpen, Path: f.path}, false)()
			if o.resp == nil {
				return o
			}
			h := o.handle
			o.resp.Release()
			read := *req
			read.Handle = h
			resp, err := rconn.Call(&read)
			if err == nil && !resp.OK() {
				err = resp.Error()
				resp.Release()
			}
			if err != nil {
				// The replica opened but could not read: retire its handle
				// before reporting the rung failed.
				retire(rconn, h)
				return rungResult{err: err, ladder: i, srv: srv}
			}
			return rungResult{resp: resp, ladder: i, srv: srv, conn: rconn, handle: h, opened: true}
		})
	}
	r := ladderCall(rungs)
	if r.resp == nil {
		return nil, r.err
	}
	if r.opened {
		f.adopt(r.conn, r.handle, r.srv)
	}
	return r.resp, nil
}

// adopt migrates the File to a replica's handle after a mid-read
// failover and retires the superseded handle. A File that already closed
// retires the new handle instead of keeping it.
func (f *File) adopt(conn transport.Transport, handle int64, srv int) {
	f.mu.Lock()
	if f.closed || f.fallback != nil {
		f.mu.Unlock()
		retire(conn, handle)
		return
	}
	oldConn, oldHandle := f.conn, f.handle
	f.conn, f.handle, f.srv = conn, handle, srv
	f.mu.Unlock()
	f.c.bump(func(s *ClientStats) { s.Failovers++ })
	retire(oldConn, oldHandle)
}

// degradeToPFS converts the handle to a direct PFS handle after a server
// failure and completes the read from it.
func (f *File) degradeToPFS(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if f.closed {
		// Close already snapshotted the serving state; opening a PFS
		// handle now would leak it.
		f.mu.Unlock()
		return 0, os.ErrClosed
	}
	if f.fallback == nil {
		pf, err := os.Open(f.path) //hvac:pfs-fallback designated mid-read fallback: the serving server died with the handle open (§III-H)
		if err != nil {
			f.mu.Unlock()
			return 0, err
		}
		f.fallback = pf
		f.c.bump(func(s *ClientStats) { s.Degrades++ })
	}
	fb := f.fallback
	f.mu.Unlock()
	return fb.ReadAt(p, off)
}

// Read implements io.Reader: ReadAt at the handle's offset, with all of
// its fallback behaviour. A sequential reader gets its overlap from the
// bulk pipeline, by reading with a buffer over bulkChunk.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	off := f.off
	f.mu.Unlock()
	n, err := f.ReadAt(p, off)
	f.mu.Lock()
	f.off = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// Close implements io.Closer, releasing the server-side handle. The
// close is one-way (transport.OpClose): it costs no round trip of its
// own, and leaves with the link's next request.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	// Snapshot the serving state under mu: a concurrent read may be
	// degrading to the PFS or adopting a replica handle right now, and
	// whatever lands after this instant cleans up after itself (both
	// check f.closed).
	fb, conn, handle := f.fallback, f.conn, f.handle
	f.mu.Unlock()
	if fb != nil {
		if conn != nil {
			retire(conn, handle) // the server-side handle the file degraded from
		}
		return fb.Close()
	}
	resp, err := conn.Call(&transport.Request{Op: transport.OpClose, Handle: handle})
	if err != nil {
		return err
	}
	err = resp.Error()
	resp.Release()
	return err
}

// Prefetch asks the home servers to pre-populate their caches with the
// given dataset files, without reading them — the paper's future-work
// prefetching (§IV-C: "pre-populate the HVAC cache and reduce the
// performance overhead of epoch-1"). It returns the number of hints the
// servers accepted — one per file per replica home, so Replicas per file
// when every home is reachable; unreachable servers are skipped (their
// files will be cached on first read instead).
// The hints ride one OpReadBatch (with BatchFlagPrefetch) per home
// server instead of one RPC per file, and a batch that fails is not
// re-sent file by file: its server has just spent a call's whole retry
// budget failing. With Replicas > 1 every replica home gets the hint, not
// just the primary, so a failover read after a server loss lands on a
// warm cache (§III-H replica warming).
func (c *Client) Prefetch(paths []string) int {
	// Group by home server, one slice per server in path order.
	groups := make([][]string, len(c.conns))
	for _, path := range paths {
		abs, err := filepath.Abs(path)
		if err != nil || !c.Intercepts(abs) {
			continue
		}
		for _, srv := range c.view.Replicas(abs, c.cfg.Replicas) {
			groups[srv] = append(groups[srv], abs)
		}
	}
	accepted := 0
	for srv, group := range groups {
		for start := 0; start < len(group); {
			end := batchSpan(start, len(group), func(i int) int { return len(group[i]) })
			if end == start {
				end = start + 1 // this path alone cannot be encoded, and is not hinted
			}
			accepted += prefetchHint(c.conns[srv], group[start:end])
			start = end
		}
	}
	return accepted
}

// prefetchHint sends one batched prefetch hint (OpReadBatch with
// BatchFlagPrefetch) over conn and counts the entries the server accepted:
// those answered StatusOK, not the call, since a server answers a hint for
// a path outside its dataset dir with a per-entry error inside an OK
// response. A failed call accepts none. Client.Prefetch sends one per
// server group and Server.warmReplicas one per peer home.
func prefetchHint(conn transport.Transport, paths []string) int {
	blob, err := transport.EncodeBatchPaths(paths)
	if err != nil {
		return 0
	}
	resp, err := conn.Call(&transport.Request{
		Op: transport.OpReadBatch, Handle: transport.BatchFlagPrefetch, Path: blob,
	})
	if err != nil {
		return 0
	}
	accepted := 0
	if resp.OK() {
		if results, derr := resp.BatchResults(len(paths)); derr == nil {
			for i := range results {
				if results[i].Status == transport.StatusOK {
					accepted++
				}
			}
		}
	}
	resp.Release()
	return accepted
}

// batchSpan returns the end of the longest run starting at start whose
// batch encoding fits one request: at most MaxBatchEntries entries, and
// a path list within the u16 path field of the request frame. length
// reports the byte length of entry i.
func batchSpan(start, n int, length func(int) int) int {
	total := 2
	end := start
	for end < n && end-start < transport.MaxBatchEntries {
		need := 2 + length(end)
		if total+need > 1<<16-1 {
			break
		}
		total += need
		end++
	}
	return end
}

// ReadBatch reads every path's full content in one scatter-gather pass:
// the paths are grouped by home server and each group fetched through
// OpReadBatch — one RPC round trip per (server, batch) instead of the
// <open, read, close> triple per file, which is where small-sample
// workloads spend their time. The servers are fetched concurrently, so
// the pass costs the slowest server's round trip, not their sum. The
// result is indexed like paths.
//
// Degradation is per entry: StatusAgain entries (over the response frame
// budget) are re-read individually, failed entries fall back to the PFS
// (unless disableFallback, which turns the first failure into an error),
// and a failed batch call degrades its whole group to per-file reads.
func (c *Client) ReadBatch(paths []string) ([][]byte, error) {
	out := make([][]byte, len(paths))
	if len(paths) == 0 {
		return out, nil
	}
	abspaths := make([]string, len(paths))
	groups := make([][]int, len(c.conns)) // path indices by home server, in order
	for i, p := range paths {
		abs, err := filepath.Abs(p)
		if err != nil {
			return out, err
		}
		abspaths[i] = abs
		if !c.Intercepts(abs) {
			data, err := os.ReadFile(abs) //hvac:pfs-fallback passthrough: path is outside the dataset dir, so the §III-C contract does not redirect it
			if err != nil {
				return out, err
			}
			out[i] = data
			c.bump(func(s *ClientStats) { s.Passthrough++ })
			continue
		}
		home := c.view.Place(abs)
		groups[home] = append(groups[home], i)
	}
	// Fan out: one goroutine per further server with entries, the first on
	// the caller's own, all joined before returning. The groups write
	// disjoint out slots and each reports into its own errs slot.
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	inline := -1
	for srv, group := range groups {
		if len(group) == 0 {
			continue
		}
		if inline < 0 {
			inline = srv
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[srv] = c.readBatchServer(srv, group, abspaths, out)
		}()
	}
	if inline >= 0 {
		errs[inline] = c.readBatchServer(inline, groups[inline], abspaths, out)
	}
	wg.Wait()
	// The lowest failing server index names the error, whichever group
	// happened to fail first.
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// readBatchServer fetches the batch entries homed on server srv, in as
// many OpReadBatch chunks as their encoding needs, stopping at the first
// chunk that fails hard.
func (c *Client) readBatchServer(srv int, group []int, abspaths []string, out [][]byte) error {
	for start := 0; start < len(group); {
		end := batchSpan(start, len(group), func(i int) int { return len(abspaths[group[i]]) })
		if end == start {
			end = start + 1 // unencodable path: the per-file fallback handles it
		}
		if err := c.readBatchGroup(srv, group[start:end], abspaths, out); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// readBatchGroup fetches one server's batch chunk into out. Batch-level
// failures degrade every entry to readBatchEntryFallback; per-entry
// statuses degrade only their own path.
func (c *Client) readBatchGroup(srv int, idxs []int, abspaths []string, out [][]byte) error {
	group := make([]string, len(idxs))
	for i, ix := range idxs {
		group[i] = abspaths[ix]
	}
	blob, err := transport.EncodeBatchPaths(group)
	if err != nil {
		return c.readBatchDegraded(idxs, abspaths, out)
	}
	resp, err := c.conns[srv].Call(&transport.Request{Op: transport.OpReadBatch, Path: blob})
	if err != nil || !resp.OK() {
		if err == nil {
			resp.Release()
		}
		return c.readBatchDegraded(idxs, abspaths, out)
	}
	results, derr := resp.BatchResults(len(idxs))
	if derr != nil {
		resp.Release()
		return c.readBatchDegraded(idxs, abspaths, out)
	}
	// Take the OK payloads: a landed one (a descriptor the transport read
	// from, on the local socket) is already a recyclable buffer, as
	// ReadAll's are, and the rest are copied out of the pooled frame into
	// one. Remember the failed entries; their fallbacks run after Release
	// so the frame is not pinned across further RPCs.
	type retry struct {
		ix  int
		err error // nil for StatusAgain (frame budget), set for StatusError
	}
	var retries []retry
	served, bytes := 0, 0
	for i := range results {
		ix := idxs[i]
		switch results[i].Status {
		case transport.StatusOK:
			out[ix] = results[i].Data
			if !results[i].Landed {
				out[ix] = slab.Clone(results[i].Data)
			}
			served++
			bytes += len(results[i].Data)
		case transport.StatusAgain:
			retries = append(retries, retry{ix: ix})
		default:
			retries = append(retries, retry{ix: ix, err: fmt.Errorf("hvac client: batch read %s: %s", abspaths[ix], results[i].Err)})
		}
	}
	resp.Release()
	if served > 0 {
		c.bump(func(s *ClientStats) {
			s.BatchReads += int64(served)
			s.BytesRead += int64(bytes)
		})
	}
	for _, r := range retries {
		if r.err == nil {
			// Over the frame budget: the server is healthy, the file is just
			// big. Read it through the ordinary transaction.
			data, err := c.ReadAll(abspaths[r.ix])
			if err != nil {
				return err
			}
			out[r.ix] = data
			c.bump(func(s *ClientStats) { s.BatchFallbacks++ })
			continue
		}
		if c.cfg.disableFallback {
			return r.err
		}
		data, ferr := os.ReadFile(abspaths[r.ix]) //hvac:pfs-fallback designated batch-entry fallback: the home server failed this entry, the rest of the batch proceeds (§III-H)
		if ferr != nil {
			return fmt.Errorf("hvac client: batch read %s: server failed (%v) and PFS fallback failed: %w", abspaths[r.ix], r.err, ferr)
		}
		out[r.ix] = data
		c.bump(func(s *ClientStats) {
			s.BatchFallbacks++
			s.BytesRead += int64(len(data))
		})
	}
	return nil
}

// readBatchDegraded serves a batch chunk whose RPC (or encoding) failed:
// every entry degrades to the ordinary per-file read, which carries its
// own replica and PFS fallback handling.
func (c *Client) readBatchDegraded(idxs []int, abspaths []string, out [][]byte) error {
	c.bump(func(s *ClientStats) { s.BatchFallbacks += int64(len(idxs)) })
	for _, ix := range idxs {
		data, err := c.ReadAll(abspaths[ix])
		if err != nil {
			return err
		}
		out[ix] = data
	}
	return nil
}

// ReadAll reads the whole file through the <open, read, close> transaction
// DL loaders make (§III-F). The buffer comes from internal/slab: a
// caller done with the bytes may hand it to slab.Put for the next ReadAll
// to refill, and one that keeps or drops it needs to do nothing.
func (c *Client) ReadAll(path string) ([]byte, error) {
	f, err := c.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The size came off the wire (Response.Size): bound it before letting
	// it pick the allocation. Oversized or nonsensical values fall back to
	// the chunked path, which grows the buffer only as data arrives.
	size := f.Size()
	if size < 0 || size > transport.MaxFrame {
		return readAllChunked(f)
	}
	buf := slab.Get(int(size))
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return buf[:n], err
	}
	return buf[:n], nil
}

// readAllChunked reads f to its end into a slice that grows only as bytes
// arrive — by 64 KiB at first, then geometrically, each time reading into
// the new tail — so a corrupt or hostile size field never commits a large
// allocation up front.
func readAllChunked(f *File) ([]byte, error) {
	var buf []byte
	for {
		buf = slices.Grow(buf, 64<<10)
		n, err := f.ReadAt(buf[len(buf):cap(buf)], int64(len(buf)))
		buf = buf[:len(buf)+n]
		if err == io.EOF || err == nil && n == 0 {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
