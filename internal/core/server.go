// Package core implements HVAC itself — the paper's contribution: a
// client/server read-only cache (§III).
//
// Server side: RPC handlers forward file I/O to a pool of data-mover
// workers (§III-D) through a two-level queue: demand misses (a client is
// waiting on the bytes) preempt prefetch hints (§IV-C pre-population).
// On the first read of a file the assigned mover copies it from the PFS
// into the node-local store in a single pass; the requesting handlers
// are served directly from that in-flight fill as the bytes land
// (serve-from-fill), so a cold file costs exactly one PFS read. A file
// is copied at most once even under concurrent requests (the fills are
// single-flighted per cache key).
//
// Client side: an interception layer redirects <open, read, close> for
// paths under the dataset directory (the HVAC_DATASET_DIR contract of
// §III-C) to the server that "homes" the file by hashing (§III-E),
// falling back to the PFS when a server is unreachable.
//
// Both halves exist twice: the real mode below (goroutines, TCP, actual
// files) and a simulated mode (sim*.go) used to reproduce the paper's
// Summit-scale experiments; the placement, queueing and caching logic is
// shared.
//
// The request path is engineered to be allocation- and contention-free
// when warm (DESIGN.md §9): stats are typed atomics, the handle table is
// sharded (handles.go), payload buffers are pooled (transport.Response
// ownership), and the only mutex left — Server.mu — guards just the
// data-mover single-flight map, off the warm read path entirely.
//
// Every read op — OpRead on a handle, OpReadAt on a segment, each
// OpReadBatch entry — is a framing wrapper over one resolver (resolve):
// lease on the resident entry → in-flight fill → just-committed entry →
// PFS. The server holds no descriptor on a cached file between requests;
// a handle is a path, a size and the fill its open registered. The state
// machine is documented in DESIGN.md §10.
package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hvac/internal/cachestore"
	"hvac/internal/metrics"
	"hvac/internal/place"
	"hvac/internal/transport"
)

// Default capacities of the two mover queues. Sends never block: a full
// demand queue degrades that request to handler-side read-through, a
// full prefetch queue drops the hint (counted in PrefetchDrops).
const (
	defaultDemandQueue   = 1024
	defaultPrefetchQueue = 4096
)

// defaultMovers is the data-mover pool size when ServerConfig.Movers is
// unset. One mover (the paper's single dedicated thread) serializes
// every cold fill behind one PFS copy at a time, which dominated
// first-epoch latency (DESIGN.md §10); a small pool keeps
// concurrent demand misses overlapped without approaching the PFS
// connection limits a real deployment budgets per node.
const defaultMovers = 4

// ServerConfig configures a real-mode HVAC server instance.
type ServerConfig struct {
	// ListenAddr is the TCP address to serve on ("127.0.0.1:0" for tests).
	ListenAddr string
	// PFSDir is the parallel-file-system directory this server may cache
	// from; requests outside it are refused.
	PFSDir string
	// CacheDir is the node-local storage directory for cached copies.
	CacheDir string
	// CacheCapacity is the cache size in bytes.
	CacheCapacity int64
	// Policy is the eviction policy; nil means the paper's random policy.
	Policy cachestore.Policy
	// Movers is the number of data-mover workers; 0 means defaultMovers.
	// The paper dedicates one thread per server instance; multi-instance
	// deployments i×1 can equivalently run one server with i movers, and
	// a pool keeps concurrent cold fills from serializing behind a single
	// PFS copy.
	Movers int
	// SegmentSize > 0 enables segment-level caching (§III-E): files are
	// cached and served in SegmentSize-byte segments, each homed
	// independently, which balances load for datasets with highly skewed
	// file sizes. Clients must use the same value.
	SegmentSize int64
	// WriteTimeout bounds each response write so a dead client cannot pin
	// a connection goroutine; 0 means transport.DefaultWriteTimeout,
	// negative disables the deadline.
	WriteTimeout time.Duration
	// ZeroCopy serves warm whole-file and segment reads from an fd lease
	// on the cached file, letting the transport push the payload with
	// sendfile(2) so the bytes never cross userspace (Linux; every other
	// writer or platform transparently falls back to the pooled
	// pread+writev path). See DESIGN.md §13.
	ZeroCopy bool
	// OpenPFS overrides how the server opens source files on the PFS;
	// nil means os.Open. Tests use it to count PFS passes (the
	// one-read-per-cold-file property), deployments can route it at an
	// alternative PFS mount.
	OpenPFS func(path string) (*os.File, error)
	// Replicas is the placement replication factor replica warming
	// (§III-H) uses: once SetPeers has named the allocation's servers, a
	// completed demand fill forwards its key to the key's other Replicas-1
	// homes as prefetch hints, so a failover read hits a warm cache
	// instead of triggering a cold PFS storm. It must match the clients'
	// value; below 2, or before SetPeers, nothing is warmed.
	Replicas int

	// demandQueue and prefetchQueue cap the two mover queues; 0 means
	// defaultDemandQueue / defaultPrefetchQueue. Only this package's tests
	// set them, to reach the backpressure rungs with a handful of requests.
	demandQueue   int
	prefetchQueue int
}

// ServerStats counts server-side activity. The counters satisfy an
// accounting identity checked by the stress and chaos tests: every
// whole-file open, every segment read and every batch entry is served
// either from the cache (Hits) or sourced from the PFS (ReadThroughs),
// so
//
//	Hits + ReadThroughs == Opens + segment Reads + BatchEntries
//
// Misses counts completed background fills, which lag ReadThroughs (the
// data-mover single-flights concurrent first reads and may still be
// streaming when the request is answered from the fill).
//
// Every serve event bumps one sourcing counter and one serve-kind counter
// together. Whole-file handle reads are outside the identity: their
// sourcing was accounted at open, so handleRead drops the resolver's
// verdict. TestReadLadderThroughEveryWrapper asserts the identity for
// every read op in every state the resolver distinguishes, and
// runChaosCase after every chaos schedule.
type ServerStats struct {
	Opens        int64
	Reads        int64
	Closes       int64
	Hits         int64
	Misses       int64
	ReadThroughs int64
	BatchEntries int64
	BytesServed  int64
	BytesFetched int64
	Evictions    int64
	// QueueDepth is a gauge: tasks sitting in the two mover queues at
	// snapshot time (demand + prefetch).
	QueueDepth int64
	// PrefetchDrops counts prefetch hints dropped on a full queue —
	// backpressure instead of unbounded blocking sends.
	PrefetchDrops int64
	// DemandRejects counts demand fetches refused on a full queue; the
	// refused request is served read-through by its handler instead.
	DemandRejects int64
	// ReplicaWarms counts warm hints this server sent to peer replicas
	// that were accepted (the peer may still drop the hint under its own
	// prefetch backpressure, counted there as PrefetchDrops).
	ReplicaWarms int64
	// PlanInstalled counts plan entries accepted over OpPlan (across all
	// generations); PlanPrefetches counts fills the plan pump enqueued.
	// Both sit outside the served identity: a planned fill is a prefetch,
	// counted as a Miss when it completes like any other fill.
	PlanInstalled  int64
	PlanPrefetches int64
	// PlanKeys and PlanFrontier are gauges: the installed plan's length
	// and the highest plan position observed as a demand read (-1 before
	// the first).
	PlanKeys     int64
	PlanFrontier int64
	// Zero-copy serve accounting (transport.ZeroCopyStats snapshots).
	// Identity, asserted by TestReadLadderThroughEveryWrapper and by
	// runChaosCase with ZeroCopy armed:
	//
	//	ZeroCopySends + ZeroCopyFallbacks == ZeroCopyEligible
	//
	// Every response that reached the wire with an fd-backed payload
	// (eligible) either left entirely via sendfile (a send) or involved
	// userspace bytes (a fallback). ZeroCopyBytes counts the bytes
	// sendfile itself moved.
	ZeroCopyEligible  int64
	ZeroCopySends     int64
	ZeroCopyBytes     int64
	ZeroCopyFallbacks int64
}

// serverCounters is the live form of ServerStats: typed atomics, so the
// read path bumps them without any lock (and plain access to these
// fields is unrepresentable).
type serverCounters struct {
	opens, reads, closes atomic.Int64
	hits, misses         atomic.Int64
	readThroughs         atomic.Int64
	batchEntries         atomic.Int64
	bytesServed          atomic.Int64
	bytesFetched         atomic.Int64
	prefetchDrops        atomic.Int64
	demandRejects        atomic.Int64
	replicaWarms         atomic.Int64
	planInstalled        atomic.Int64
	planPrefetches       atomic.Int64
}

func (c *serverCounters) snapshot() ServerStats {
	return ServerStats{
		Opens:          c.opens.Load(),
		Reads:          c.reads.Load(),
		Closes:         c.closes.Load(),
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		ReadThroughs:   c.readThroughs.Load(),
		BatchEntries:   c.batchEntries.Load(),
		BytesServed:    c.bytesServed.Load(),
		BytesFetched:   c.bytesFetched.Load(),
		PrefetchDrops:  c.prefetchDrops.Load(),
		DemandRejects:  c.demandRejects.Load(),
		ReplicaWarms:   c.replicaWarms.Load(),
		PlanInstalled:  c.planInstalled.Load(),
		PlanPrefetches: c.planPrefetches.Load(),
	}
}

// errServerClosed fails fetch tasks drained during shutdown.
var errServerClosed = errors.New("hvac server: closed")

// fillEntry is the single-flight record of one in-flight background
// fill. Handlers that hit the same cold key attach to it: ready is
// closed once the mover has opened the source and created the
// cachestore.Fill (or failed trying — fill stays nil then), done is
// closed when the fetch completes and the key leaves the inflight map.
type fillEntry struct {
	once  sync.Once
	ready chan struct{}
	fill  *cachestore.Fill // valid after <-ready; nil if fill creation failed
	done  chan struct{}
	err   error // valid after <-done
}

// publish records the fill (nil on failure) and unblocks attachers.
// Idempotent: only the first call wins.
func (fe *fillEntry) publish(f *cachestore.Fill) {
	fe.once.Do(func() {
		fe.fill = f
		close(fe.ready)
	})
}

// fetchTask names one data-mover copy: a whole file (Len == 0) or one
// segment of it.
type fetchTask struct {
	key     string // cache-store key ("path" or "path@segIdx")
	path    string
	off     int64
	len     int64 // 0 = to EOF (whole file)
	demand  bool  // a client is waiting; completed demand fills warm the replicas
	planned bool  // scheduled by the plan pump; completion re-pumps the plan
	entry   *fillEntry
}

// openHandle is what the wire protocol's handle names: the file, the size
// the open reported, and — for a handle opened cold — the fill that open
// registered, so its reads attach without a second trip through Server.mu.
// It holds no descriptor and no claim on the cache entry: every read
// resolves the path afresh, which is why closing (or leaking) a handle
// has nothing to tear down.
type openHandle struct {
	path string
	size int64
	fe   *fillEntry
}

// Server is a real-mode HVAC server instance.
type Server struct {
	cfg     ServerConfig
	store   *cachestore.Store
	rpc     *transport.Server
	openPFS func(path string) (*os.File, error)

	demandQ   chan fetchTask
	prefetchQ chan fetchTask
	stop      chan struct{}
	moverWG   sync.WaitGroup

	handles handleTable
	nextFD  atomic.Int64
	stats   serverCounters
	// zc is the zero-copy serve accounting, bumped by the transport's
	// write path for every fd-backed response this server emits.
	zc transport.ZeroCopyStats

	// Clairvoyant planning state (planner.go). planArmed short-circuits
	// planObserve on the warm read path until a plan is installed;
	// planHorizon is the pump window (defaultPlanHorizon until an install
	// RPC names its own); belady is cfg.Policy when it is the Clairvoyant
	// eviction policy, so installed plans also score eviction.
	plan        planner
	planArmed   atomic.Bool
	planHorizon atomic.Int64
	belady      *cachestore.Clairvoyant

	// mu guards only the data-mover single-flight state below — nothing
	// on the warm read path takes it, and nothing is called into with it
	// held: residency is not re-probed under it (no s.mu → Store.mu
	// order to keep); runFetch's probe closes that window instead.
	mu       sync.Mutex
	idle     *sync.Cond // signalled when inflight drains to empty
	inflight map[string]*fillEntry
	closed   bool

	// peerMu guards the replica-warming wiring: the peer address list,
	// its membership view, and the lazily dialed peer links. Never held
	// across a Call.
	peerMu    sync.Mutex
	peers     []string
	self      int
	pview     *place.View
	peerConns []transport.Transport

	latOpen  metrics.Histogram
	latRead  metrics.Histogram
	latClose metrics.Histogram
	latCopy  metrics.Histogram
}

// StartServer launches an HVAC server. Stop it with Close.
func StartServer(cfg ServerConfig) (*Server, error) {
	if cfg.PFSDir == "" {
		return nil, errors.New("core: ServerConfig.PFSDir is required")
	}
	if cfg.Movers <= 0 {
		cfg.Movers = defaultMovers
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 1 << 40
	}
	if cfg.demandQueue <= 0 {
		cfg.demandQueue = defaultDemandQueue
	}
	if cfg.prefetchQueue <= 0 {
		cfg.prefetchQueue = defaultPrefetchQueue
	}
	abs, err := filepath.Abs(cfg.PFSDir)
	if err != nil {
		return nil, err
	}
	cfg.PFSDir = abs
	store, err := cachestore.NewStore(cfg.CacheDir, cfg.CacheCapacity, cfg.Policy)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		store:     store,
		openPFS:   cfg.OpenPFS,
		demandQ:   make(chan fetchTask, cfg.demandQueue),
		prefetchQ: make(chan fetchTask, cfg.prefetchQueue),
		stop:      make(chan struct{}),
		inflight:  make(map[string]*fillEntry),
	}
	if s.openPFS == nil {
		s.openPFS = os.Open
	}
	s.planHorizon.Store(defaultPlanHorizon)
	if cl, ok := cfg.Policy.(*cachestore.Clairvoyant); ok {
		s.belady = cl
	}
	s.idle = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Movers; i++ {
		s.moverWG.Add(1)
		go s.mover()
	}
	rpcSrv, err := transport.ServeWith(cfg.ListenAddr, s.handle, transport.ServerOptions{WriteTimeout: cfg.WriteTimeout})
	if err != nil {
		close(s.stop)
		s.moverWG.Wait()
		return nil, err
	}
	s.rpc = rpcSrv
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.rpc.Addr() }

// SetPeers wires (or rewires) the replica-warming peer set: peers is
// every server address of the allocation in client order, self is this
// server's index in it. It is called after startup, once every server's
// address is known (hvacd's -peers/-self; tests with ephemeral ports).
// The peers are placed with ModHash, as the clients place them. Existing
// peer links are retired.
func (s *Server) SetPeers(peers []string, self int) {
	var stale []transport.Transport
	s.peerMu.Lock()
	for _, conn := range s.peerConns {
		if conn != nil {
			stale = append(stale, conn)
		}
	}
	s.peers = append([]string(nil), peers...)
	s.self = self
	s.peerConns = make([]transport.Transport, len(peers))
	if len(peers) > 0 {
		s.pview = place.NewView(place.ModHash{}, len(peers))
	} else {
		s.pview = nil
	}
	s.peerMu.Unlock()
	for _, conn := range stale {
		conn.Close()
	}
}

// peerConn returns the lazily dialed link to peer i, nil for self.
func (s *Server) peerConn(i int) transport.Transport {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if i < 0 || i >= len(s.peerConns) || i == s.self {
		return nil
	}
	if s.peerConns[i] == nil {
		s.peerConns[i] = transport.Dial(s.peers[i])
	}
	return s.peerConns[i]
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	st := s.stats.snapshot()
	_, _, ev := s.store.Stats()
	st.Evictions = ev
	st.QueueDepth = int64(len(s.demandQ) + len(s.prefetchQ))
	keys, frontier := s.planSnapshot()
	st.PlanKeys = int64(keys)
	st.PlanFrontier = frontier
	st.ZeroCopyEligible = s.zc.Eligible.Load()
	st.ZeroCopySends = s.zc.Sends.Load()
	st.ZeroCopyBytes = s.zc.Bytes.Load()
	st.ZeroCopyFallbacks = s.zc.Fallbacks.Load()
	return st
}

// CachedFiles reports the number of files currently cached.
func (s *Server) CachedFiles() int { return s.store.Len() }

// CachedBytes reports the bytes currently cached.
func (s *Server) CachedBytes() int64 { return s.store.Used() }

// Close tears the server down and purges the cache, mirroring the
// job-coupled life cycle of §III-D.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	// Stop the movers, then fail whatever they left queued. No new tasks
	// can arrive: scheduleFetch checks closed under mu before its
	// non-blocking send, so there is no send racing this drain (the old
	// close-the-channel teardown had exactly that panic window). Handlers
	// parked on a fill return on stop.
	close(s.stop)
	s.moverWG.Wait()
	for drained := false; !drained; {
		select {
		case task := <-s.demandQ:
			s.finishFetch(task, errServerClosed)
		case task := <-s.prefetchQ:
			s.finishFetch(task, errServerClosed)
		default:
			drained = true
		}
	}
	// Only now sever the connections: each releases the lease of the last
	// frame it sent, which the kernel may still be sending, and with no
	// mover left no fill can overwrite that file in place.
	s.rpc.Close()
	s.peerMu.Lock()
	peerConns := s.peerConns
	s.peerConns = nil
	s.peerMu.Unlock()
	for _, conn := range peerConns {
		if conn != nil {
			conn.Close()
		}
	}
	_ = s.store.Purge()           // best-effort: leftover cache files are re-usable garbage
	_ = os.Remove(s.store.Dir())  // fails harmlessly if the purge left files behind
	_ = os.Remove(s.cfg.CacheDir) // likewise, and while another store still lives in it
}

// mover is one data-mover worker: it drains the two-level queue — demand
// misses strictly before prefetch hints — and streams each task's bytes
// from the PFS into a cachestore fill that waiting handlers are served
// from.
func (s *Server) mover() {
	defer s.moverWG.Done()
	for {
		// Demand first, without blocking.
		select {
		case task := <-s.demandQ:
			s.runFetch(task)
			continue
		default:
		}
		select {
		case task := <-s.demandQ:
			s.runFetch(task)
		case task := <-s.prefetchQ:
			s.runFetch(task)
		case <-s.stop:
			return
		}
	}
}

// runFetch executes one fetch task end to end. A successful demand fill
// warms the key's replicas before the task retires, so once WaitIdle
// returns on this server every warm hint it owed is already registered
// on the peers (prefetch fills never re-warm — warming cannot cascade).
//
// A key that is already resident is not fetched again — the other half of
// single-flight: callers probe residency before scheduleFetch takes s.mu,
// so a fill that commits and leaves inflight in between lets a second
// task for its key through. When that task runs the first has fully
// retired (one task per key in flight, commit before retire), so the
// probe here is exact; the task retires empty-handed and its attachers
// read the committed entry.
func (s *Server) runFetch(task fetchTask) {
	var err error
	if !s.store.Resident(task.key) {
		start := time.Now()
		err = s.fillIn(task)
		s.latCopy.Observe(time.Since(start))
		if err == nil {
			s.stats.misses.Add(1) // a completed first-read fill
			if task.demand {
				s.warmReplicas(task)
			}
		}
	}
	s.finishFetch(task, err)
	if task.planned {
		// A planned fill retired: the pump may have stopped on prefetch
		// backpressure, so top the window back up.
		s.pumpPlan()
	}
}

// warmReplicas forwards a completed demand fill to the key's other
// replica homes as prefetch hints — the §III-H replica-warming flow:
// the primary serves the cold read, the secondaries fill through their
// low-priority prefetch queue (their own counted backpressure applies),
// and a later failover read finds a warm cache. Segment keys carry
// their byte range so the peer fills exactly the segment it homes.
func (s *Server) warmReplicas(task fetchTask) {
	s.peerMu.Lock()
	view, r := s.pview, s.cfg.Replicas
	s.peerMu.Unlock()
	if view == nil || r < 2 {
		return
	}
	for _, peer := range view.Replicas(task.key, r) {
		conn := s.peerConn(peer) // nil for self
		if conn == nil {
			continue
		}
		resp, err := conn.Call(&transport.Request{
			Op: transport.OpPrefetch, Path: task.path, Off: task.off, Len: task.len,
		})
		if err != nil {
			continue // a dead peer warms on its own first read instead
		}
		if resp.OK() {
			s.stats.replicaWarms.Add(1)
		}
		resp.Release()
	}
}

// finishFetch publishes the task's outcome and retires its single-flight
// entry.
func (s *Server) finishFetch(task fetchTask, err error) {
	task.entry.err = err
	task.entry.publish(nil) // no-op when the fill was published mid-fetch
	s.mu.Lock()
	delete(s.inflight, task.key)
	if len(s.inflight) == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
	close(task.entry.done)
}

// WaitIdle blocks until every in-flight background fill has completed.
// Useful for tests and for measuring clean warm-epoch performance. The
// movers signal the condition when the inflight map drains, so waiting
// does not re-scan or poll.
func (s *Server) WaitIdle() {
	s.mu.Lock()
	for len(s.inflight) > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// fillIn is the single PFS pass for one task: open the source once,
// stream it into a cachestore fill (serving attached readers as bytes
// land), and commit the fill into the cache.
func (s *Server) fillIn(task fetchTask) error {
	src, err := s.openPFS(task.path)
	if err != nil {
		return fmt.Errorf("hvac server: pfs open: %w", err)
	}
	defer src.Close()
	fi, err := src.Stat()
	if err != nil {
		return fmt.Errorf("hvac server: pfs stat: %w", err)
	}
	size := fi.Size() - task.off
	if size < 0 {
		size = 0
	}
	if task.len > 0 && task.len < size {
		size = task.len
	}
	fill, err := s.store.PutWriter(task.key, size)
	if err != nil {
		return fmt.Errorf("hvac server: cache fill: %w", err)
	}
	task.entry.publish(fill)
	// CopyFrom lets the kernel move the bytes (copy_file_range/sendfile)
	// instead of bouncing them through a user-space buffer; attached
	// readers are still served chunk by chunk as the prefix lands.
	if _, err := fill.CopyFrom(src, task.off, size); err != nil {
		fill.Abort(err)
		return fmt.Errorf("hvac server: cache fill: %w", err)
	}
	if err := fill.Commit(); err != nil {
		return fmt.Errorf("hvac server: cache fill: %w", err)
	}
	s.stats.bytesFetched.Add(size)
	return nil
}

// scheduleFetch registers a background fill for task once per cache key
// (the §III-D single-flight guarantee) and enqueues it at the given
// priority. It returns the fill entry to attach to, or nil when the
// fetch could not be queued — a full demand queue (the handler serves
// read-through itself), a dropped prefetch hint, or a closing server.
// enqueued reports whether this call created the fill (false when the
// caller attached to a fetch already in flight). The non-blocking send
// happens under s.mu, so it cannot race Close's queue drain.
func (s *Server) scheduleFetch(task fetchTask, demand bool) (fe *fillEntry, enqueued bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	if fe, ok := s.inflight[task.key]; ok {
		return fe, false
	}
	fe = &fillEntry{ready: make(chan struct{}), done: make(chan struct{})}
	task.entry = fe
	task.demand = demand
	q := s.prefetchQ
	if demand {
		q = s.demandQ
	}
	select {
	case q <- task:
		s.inflight[task.key] = fe
		return fe, true
	default:
		if demand {
			s.stats.demandRejects.Add(1)
		} else {
			s.stats.prefetchDrops.Add(1)
		}
		return nil, false
	}
}

func errResp(err error) *transport.Response {
	return &transport.Response{Status: transport.StatusError, Err: err.Error()}
}

// checkRange bounds a wire-supplied read range before it sizes a buffer
// or reaches the resolver: a negative offset or length is nonsense (an
// offset below zero would grow the handle's clamp and reach pread and
// sendfile as is) and anything above half a frame cannot be answered
// (the response frame must also carry the header and tail). Both
// handleRead and handleReadAt validate through this one helper.
func checkRange(off, n int64) error {
	if off < 0 || n < 0 || n > transport.MaxFrame/2 {
		return fmt.Errorf("hvac server: read of %d bytes at offset %d out of range", n, off)
	}
	return nil
}

// segKey names one cached segment. strconv instead of fmt keeps it off
// the Sprintf slow path — this runs per segment read on client and
// server.
func segKey(path string, seg int64) string {
	return path + "@" + strconv.FormatInt(seg, 10)
}

// handle dispatches one RPC, recording per-operation service latency.
func (s *Server) handle(req *transport.Request) *transport.Response {
	start := time.Now()
	switch req.Op {
	case transport.OpPing:
		return &transport.Response{Status: transport.StatusOK}
	case transport.OpOpen:
		defer func() { s.latOpen.Observe(time.Since(start)) }()
		return s.handleOpen(req)
	case transport.OpRead:
		defer func() { s.latRead.Observe(time.Since(start)) }()
		return s.handleRead(req)
	case transport.OpClose:
		defer func() { s.latClose.Observe(time.Since(start)) }()
		return s.handleClose(req)
	case transport.OpStat:
		return s.handleStat(req)
	case transport.OpPrefetch:
		return s.handlePrefetch(req)
	case transport.OpReadAt:
		defer func() { s.latRead.Observe(time.Since(start)) }()
		return s.handleReadAt(req)
	case transport.OpReadBatch:
		defer func() { s.latRead.Observe(time.Since(start)) }()
		return s.handleReadBatch(req)
	case transport.OpPlan:
		return s.handlePlan(req)
	default:
		return errResp(fmt.Errorf("hvac server: unknown op %d", req.Op))
	}
}

// LatencySummary renders the server's per-operation service-time
// histograms (open/read/close handling plus data-mover copies).
func (s *Server) LatencySummary() string {
	return fmt.Sprintf("open: %s\nread: %s\nclose: %s\ncopy: %s",
		s.latOpen.String(), s.latRead.String(), s.latClose.String(), s.latCopy.String())
}

// OpenLatency exposes the open-operation histogram.
func (s *Server) OpenLatency() *metrics.Histogram { return &s.latOpen }

// ReadLatency exposes the read-operation histogram.
func (s *Server) ReadLatency() *metrics.Histogram { return &s.latRead }

// CopyLatency exposes the data-mover copy histogram.
func (s *Server) CopyLatency() *metrics.Histogram { return &s.latCopy }

func (s *Server) allowed(path string) error {
	clean := filepath.Clean(path)
	if clean != s.cfg.PFSDir && !strings.HasPrefix(clean, s.cfg.PFSDir+string(filepath.Separator)) {
		return fmt.Errorf("hvac server: %s outside served dataset dir %s", path, s.cfg.PFSDir)
	}
	return nil
}

// handleOpen serves a forwarded open. It moves no bytes and opens no
// file: size and residency come from the index (a peek — the hit and
// recency bump belong to the read's lease), and a miss costs one PFS
// metadata stat and registers the file with the data-mover, so the fill
// is under way before the read arrives. The sourcing verdict of the
// whole open+read+close is counted here; a full demand queue leaves the
// handle without a fill and its reads resolve like any other miss.
func (s *Server) handleOpen(req *transport.Request) *transport.Response {
	if err := s.allowed(req.Path); err != nil {
		return errResp(err)
	}
	h := &openHandle{path: req.Path}
	var resident bool
	if h.size, resident = s.store.Size(req.Path); !resident {
		fi, err := os.Stat(req.Path)
		if err != nil {
			return errResp(fmt.Errorf("hvac server: pfs stat: %w", err))
		}
		h.size = fi.Size()
		h.fe, _ = s.scheduleFetch(fetchTask{key: req.Path, path: req.Path}, true)
	}
	fd := s.nextFD.Add(1)
	s.handles.put(fd, h)
	s.stats.opens.Add(1)
	if resident {
		s.stats.hits.Add(1)
	} else {
		s.stats.readThroughs.Add(1)
	}
	s.planObserve(req.Path)
	return &transport.Response{Status: transport.StatusOK, Handle: fd, Size: h.size}
}

// zeroCopyMin is the shortest read a lease is handed to sendfile for. A
// file payload leaves as three sends — header, sendfile, tail — where a
// buffered one is a pread and a single writev, and the copy sendfile
// saves only pays for the two extra sends from about 64 KiB up: the
// loopback sweep in DESIGN.md §13.1 has the buffered path 3.7 µs ahead at
// 32 KiB, the two tied at 64 KiB and sendfile 2.7 µs ahead at 128 KiB.
const zeroCopyMin = 64 << 10

// resolve is the server's one read ladder (§III-D; DESIGN.md §10.1):
// every read op is a framing wrapper over it. It serves up to want bytes
// at off within the cached object task names — task.key, which a fill
// copies from task.len bytes (0: to EOF) of task.path at task.off — from
// the first rung that has them:
//
//  1. a lease on the resident entry, the one way to read a cached file
//     and the index's one hit/recency bump per read;
//  2. the in-flight fill: fe when the caller registered the miss already
//     (a handle opened cold, a batch's pass 1), else the demand fetch
//     registered here, which attaches to a fill already running;
//  3. the entry that fill just committed — small fills retire before
//     their reader attaches, and a handle outlives the fill it opened;
//  4. the PFS itself, only when the demand queue refused the fetch or
//     the fill failed.
//
// The payload lands in dst when the caller has a place for it (a batch
// entry inside its frame). With dst nil it goes on resp: rung 1 under
// ZeroCopy hands over the lease itself for a read of zeroCopyMin bytes or
// more, for sendfile, and the transport releases it once the peer has read
// the frame (transport.PayloadReleaser);
// every other serve fills a pooled buffer grabbed from resp only once a
// rung needs one, sized to what the entry can still deliver, and leaves
// in the response's one vectored write. A range past the end is a short,
// possibly empty, read.
//
// hit is the sourcing verdict the caller counts on its side of the
// served identity: rung 1, unless the caller had already registered the
// miss — that request pulled the bytes off the PFS whichever rung ends
// up handing them over.
func (s *Server) resolve(task fetchTask, fe *fillEntry, off, want int64, resp *transport.Response, dst []byte) (n int, hit bool, err error) {
	lz, lerr := s.store.Lease(task.key)
	if lerr == nil {
		want = min(want, max(lz.Size()-off, 0))
		if dst == nil && s.cfg.ZeroCopy && want >= zeroCopyMin {
			resp.SetPayloadFile(lz.File(), off, want, lz, &s.zc)
			return int(want), fe == nil, nil
		}
	}
	if dst == nil {
		dst = resp.Grab(int(want))
		defer func() { resp.Data = dst[:n] }()
	}
	dst = dst[:want]
	if lerr == nil {
		n, err = lz.ReadAt(dst, off)
		lz.Release()
		if err == nil || err == io.EOF {
			return n, fe == nil, nil
		}
		// The cached copy went bad under its lease: the miss ladder
		// serves the same bytes.
	}
	if fe == nil {
		fe, _ = s.scheduleFetch(task, true)
	}
	if fe != nil {
		select {
		case <-fe.ready:
		case <-s.stop:
			return 0, false, errServerClosed
		}
		if fl := fe.fill; fl != nil && fl.Acquire() {
			n, err = fl.ReadAt(dst, off)
			fl.Release()
			if err == nil || err == io.EOF {
				return n, false, nil
			}
			// The fill aborted mid-stream.
		}
	}
	if n, err = s.store.ReadAt(task.key, dst, off); err == nil || err == io.EOF {
		return n, false, nil
	}
	f, err := s.openPFS(task.path)
	if err != nil {
		return 0, false, fmt.Errorf("hvac server: pfs open: %w", err)
	}
	n, err = f.ReadAt(dst, task.off+off)
	_ = f.Close() // read-only handle; the ReadAt result is what matters
	if err != nil && err != io.EOF {
		return 0, false, err
	}
	return n, false, nil
}

// handleRead serves a ranged read on an open handle. The warm path is
// allocation-free: the handle lookup takes a sharded read lock, the
// payload is a lease (or a pooled buffer owned by the response, recycled
// by the transport loop after the vectored write), and the counters are
// atomics.
func (s *Server) handleRead(req *transport.Request) *transport.Response {
	h, ok := s.handles.get(req.Handle)
	if !ok {
		return errResp(fmt.Errorf("hvac server: bad handle %d", req.Handle))
	}
	if err := checkRange(req.Off, req.Len); err != nil {
		return errResp(err)
	}
	// The wire names the reader's buffer, not the file: ask for what the
	// handle can still deliver from Off, so a large buffer over a small
	// cold file does not pin a large frame for the call.
	want := min(req.Len, max(h.size-req.Off, 0))
	resp := transport.AcquireResponse()
	n, _, err := s.resolve(fetchTask{key: h.path, path: h.path}, h.fe, req.Off, want, resp, nil)
	if err != nil {
		resp.Release()
		return errResp(err)
	}
	s.stats.reads.Add(1)
	s.stats.bytesServed.Add(int64(n))
	resp.Status = transport.StatusOK
	resp.Size = int64(n)
	return resp
}

func (s *Server) handleClose(req *transport.Request) *transport.Response {
	if _, ok := s.handles.take(req.Handle); !ok {
		return errResp(fmt.Errorf("hvac server: bad handle %d", req.Handle))
	}
	s.stats.closes.Add(1)
	return &transport.Response{Status: transport.StatusOK}
}

// handlePrefetch enqueues a background fill of the file without opening
// it — the pre-population path that erases the first-epoch overhead the
// paper leaves to future work (§IV-C). Prefetch hints ride the
// low-priority queue: demand misses preempt them, and a full queue drops
// the hint rather than blocking the handler. A hint with Len > 0 names
// one segment (replica warming forwards segment fills this way); it is
// only honoured when this server caches at the same segment size.
func (s *Server) handlePrefetch(req *transport.Request) *transport.Response {
	if err := s.allowed(req.Path); err != nil {
		return errResp(err)
	}
	if req.Len > 0 {
		segSize := s.cfg.SegmentSize
		if segSize <= 0 || req.Len != segSize || req.Off%segSize != 0 {
			return errResp(fmt.Errorf("hvac server: segment hint [%d,%d) does not match segment size %d", req.Off, req.Off+req.Len, segSize))
		}
		segIdx := req.Off / segSize
		key := segKey(req.Path, segIdx)
		if !s.store.Contains(key) {
			s.scheduleFetch(fetchTask{key: key, path: req.Path, off: req.Off, len: segSize}, false)
		}
		return &transport.Response{Status: transport.StatusOK}
	}
	if !s.store.Contains(req.Path) {
		s.scheduleFetch(fetchTask{key: req.Path, path: req.Path}, false)
	}
	return &transport.Response{Status: transport.StatusOK}
}

// handleReadAt serves a stateless segment read: the requested byte range
// must lie within one segment, which is the cached object the resolver
// serves it from (a warm segment read costs one lease, not an
// open/read/close triple).
func (s *Server) handleReadAt(req *transport.Request) *transport.Response {
	segSize := s.cfg.SegmentSize
	if segSize <= 0 {
		return errResp(errors.New("hvac server: segment-level caching not enabled"))
	}
	if err := s.allowed(req.Path); err != nil {
		return errResp(err)
	}
	if err := checkRange(req.Off, req.Len); err != nil {
		return errResp(err)
	}
	segIdx := req.Off / segSize
	if (req.Off+req.Len-1)/segSize != segIdx && req.Len > 0 {
		return errResp(fmt.Errorf("hvac server: range [%d,%d) crosses a segment boundary", req.Off, req.Off+req.Len))
	}
	seg := fetchTask{key: segKey(req.Path, segIdx), path: req.Path, off: segIdx * segSize, len: segSize}
	s.planObserve(seg.key)
	resp := transport.AcquireResponse()
	n, hit, err := s.resolve(seg, nil, req.Off-seg.off, req.Len, resp, nil)
	if err != nil {
		resp.Release()
		return errResp(err)
	}
	s.stats.reads.Add(1)
	if hit {
		s.stats.hits.Add(1)
	} else {
		s.stats.readThroughs.Add(1)
	}
	s.stats.bytesServed.Add(int64(n))
	resp.Status = transport.StatusOK
	resp.Size = int64(n)
	return resp
}

// batchEntry is one batch path's pass-1 verdict.
type batchEntry struct {
	status uint8  // StatusOK: serve in pass 2 (or, prefetching, nothing left to do)
	msg    string // the StatusError body
	// A served entry reserves size payload bytes in the frame, taken from
	// the index when the key was resident and from the PFS stat otherwise;
	// fe is the miss's registration with the data-mover (nil when resident,
	// or when the demand queue refused it).
	size int
	fe   *fillEntry
}

// handleReadBatch serves a scatter-gather whole-file read (or, with
// BatchFlagPrefetch, schedules background fills): one RPC, per-entry
// statuses, never more than BatchResponseBudget payload bytes. Entries
// that would overflow the frame budget are answered StatusAgain and
// fetched individually by the client; per-entry failures degrade only
// their own path.
//
// Two passes (DESIGN.md §10.3). Pass 1 settles every entry's status and
// size and registers every miss with the data-mover, so a cold batch's
// fills run on all movers while the handler is still copying hits. Pass 2
// assembles the response in one pooled frame of the size pass 1 summed:
// each payload is read straight into its place behind its entry header,
// so a warm entry costs one lease and one pread.
func (s *Server) handleReadBatch(req *transport.Request) *transport.Response {
	paths, err := transport.DecodeBatchPaths(req.Path)
	if err != nil {
		return errResp(err)
	}
	prefetch := req.Handle&transport.BatchFlagPrefetch != 0
	plan := make([]batchEntry, len(paths))
	total := 0
	for i, p := range paths {
		plan[i] = s.planBatchEntry(p, prefetch, transport.BatchResponseBudget-total)
		total += transport.BatchEntryOverhead + plan[i].size + len(plan[i].msg)
	}
	resp := transport.AcquireResponse()
	frame := resp.Grab(total)[:0]
	for i, p := range paths {
		if e := &plan[i]; e.status != transport.StatusOK || prefetch {
			frame = transport.AppendBatchEntry(frame, e.status, []byte(e.msg))
		} else {
			frame = s.serveBatchEntry(frame, p, e)
		}
	}
	resp.Status = transport.StatusOK
	resp.Size = int64(len(paths))
	resp.Data = frame
	return resp
}

// planBatchEntry is pass 1 for one path: the dataset-dir check both batch
// modes share, then either the prefetch hint or the read's size, frame
// budget verdict (room is what the budget has left) and miss
// registration.
func (s *Server) planBatchEntry(p string, prefetch bool, room int) batchEntry {
	if err := s.allowed(p); err != nil {
		return batchEntry{status: transport.StatusError, msg: err.Error()}
	}
	if prefetch {
		if !s.store.Contains(p) {
			s.scheduleFetch(fetchTask{key: p, path: p}, false)
		}
		return batchEntry{}
	}
	size, resident := s.store.Size(p)
	if !resident {
		fi, err := os.Stat(p)
		if err != nil {
			return batchEntry{status: transport.StatusError, msg: fmt.Sprintf("hvac server: pfs stat: %v", err)}
		}
		size = fi.Size()
	}
	if size > int64(room) {
		return batchEntry{status: transport.StatusAgain}
	}
	e := batchEntry{size: int(size)}
	if !resident {
		e.fe, _ = s.scheduleFetch(fetchTask{key: p, path: p}, true)
	}
	return e
}

// serveBatchEntry is pass 2 for one planned read: it appends the entry to
// frame with the payload resolved in place (a key the index lost since
// pass 1 takes the miss ladder, for this entry only). A read that fails
// now (the fill and the PFS both gave out) degrades this entry alone to
// StatusError.
func (s *Server) serveBatchEntry(frame []byte, p string, e *batchEntry) []byte {
	start := len(frame)
	frame, body := transport.ReserveBatchEntry(frame, e.size)
	n, hit, err := s.resolve(fetchTask{key: p, path: p}, e.fe, 0, int64(e.size), nil, body)
	if err != nil {
		return transport.AppendBatchEntry(frame[:start], transport.StatusError, []byte(err.Error()))
	}
	if n < len(body) {
		// The file shrank under its recorded size: re-stamp the entry with
		// what was read (the bytes are already in place).
		frame = transport.AppendBatchEntry(frame[:start], transport.StatusOK, body[:n])
	}
	s.stats.batchEntries.Add(1)
	s.stats.bytesServed.Add(int64(n))
	if hit {
		s.stats.hits.Add(1)
	} else {
		s.stats.readThroughs.Add(1)
	}
	s.planObserve(p)
	return frame
}

func (s *Server) handleStat(req *transport.Request) *transport.Response {
	if err := s.allowed(req.Path); err != nil {
		return errResp(err)
	}
	if size, ok := s.store.Size(req.Path); ok {
		return &transport.Response{Status: transport.StatusOK, Size: size}
	}
	fi, err := os.Stat(req.Path)
	if err != nil {
		return errResp(err)
	}
	return &transport.Response{Status: transport.StatusOK, Size: fi.Size()}
}
