// Clairvoyant epoch planning: the shuffle that drives an epoch's reads
// is a seeded permutation (train.Perm), so every rank can compute — not
// predict — the exact order its files will be demanded. The client
// derives that order from a train.Oracle, carves out each server's
// sub-plan (the keys the placement view homes there, in access order)
// and installs it over OpPlan. The server then runs a plan pump: a
// bounded window of planned prefetches kept ahead of a read frontier
// that advances as demand reads are observed, so epoch-1 bytes are
// already local (or in flight) when the loader asks. The same plan
// feeds Belady eviction scoring (cachestore.Clairvoyant) under cache
// pressure. Plans are advisory: a lost or stale plan only costs
// prefetch accuracy, never correctness.

package core

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"hvac/internal/place"
	"hvac/internal/transport"
)

// AccessOracle is the epoch access order a plan is derived from —
// satisfied by *train.Oracle (core cannot import train: train's tests
// import core). At maps a global step to the dataset index read at that
// step; StepOf is its inverse.
type AccessOracle interface {
	N() int
	At(step int) int
	StepOf(index int) int
}

// defaultPlanHorizon is how many plan entries the pump keeps ahead of
// the read frontier when the install RPC names no horizon. Far enough
// ahead to hide a PFS copy behind many sample reads, small enough that
// evicting for prefetched bytes the loader will not touch for a while
// stays rare.
const defaultPlanHorizon = 256

// planner is one server's installed epoch plan and pump cursor.
// Lock order: planner.mu is taken before Server.mu / Store.mu (the pump
// schedules fetches while holding it); nothing takes planner.mu while
// holding either of those.
type planner struct {
	mu       sync.Mutex
	gen      int64          // plan generation (client-chosen, typically the epoch)
	keys     []string       // this server's keys in access order
	pos      map[string]int // key -> plan position
	next     int            // first plan position not yet scheduled
	frontier int            // highest plan position observed as a demand read; -1 before the first
}

// handlePlan installs one chunk of an epoch plan. Off == 0 starts a new
// generation (replacing any previous plan); later chunks must carry the
// same generation in Handle and append exactly at the current plan
// length, so a lost or reordered chunk is refused instead of silently
// corrupting the access order. Len names the prefetch horizon (0 keeps
// the one in force: defaultPlanHorizon, or an earlier install's). The
// response Size reports the installed plan length.
func (s *Server) handlePlan(req *transport.Request) *transport.Response {
	keys, err := transport.DecodeBatchPaths(req.Path)
	if err != nil {
		return errResp(err)
	}
	for _, k := range keys {
		if err := s.allowed(planKeyPath(k)); err != nil {
			return errResp(err)
		}
	}
	if req.Len < 0 {
		return errResp(fmt.Errorf("hvac server: negative plan horizon %d", req.Len))
	}
	pl := &s.plan
	pl.mu.Lock()
	switch {
	case req.Off == 0:
		pl.gen = req.Handle
		pl.keys = append(pl.keys[:0], keys...)
		pl.pos = make(map[string]int, len(keys))
		for i, k := range keys {
			pl.pos[k] = i
		}
		pl.next = 0
		pl.frontier = -1
	case req.Handle != pl.gen:
		pl.mu.Unlock()
		return errResp(fmt.Errorf("hvac server: plan chunk for generation %d, installed generation is %d", req.Handle, pl.gen))
	case req.Off != int64(len(pl.keys)):
		pl.mu.Unlock()
		return errResp(fmt.Errorf("hvac server: plan chunk at %d, expected %d (chunks must append in order)", req.Off, len(pl.keys)))
	default:
		start := len(pl.keys)
		pl.keys = append(pl.keys, keys...)
		for i, k := range keys {
			pl.pos[k] = start + i
		}
	}
	if req.Len > 0 {
		s.planHorizon.Store(req.Len)
	}
	planLen := len(pl.keys)
	pl.mu.Unlock()

	if s.belady != nil {
		// Mirror the plan into the eviction policy so resident keys are
		// scored by next access. AppendPlan(0, ...) resets, matching the
		// generation semantics above.
		s.belady.AppendPlan(int(req.Off), keys)
	}
	s.stats.planInstalled.Add(int64(len(keys)))
	s.planArmed.Store(true)
	s.pumpPlan()
	return &transport.Response{Status: transport.StatusOK, Size: int64(planLen)}
}

// planObserve advances the read frontier when a demand read lands on a
// planned key, re-scores eviction, and tops the pump back up. The
// planArmed fast path keeps the cost of an uninstalled planner off the
// warm read path at one atomic load.
func (s *Server) planObserve(key string) {
	if !s.planArmed.Load() {
		return
	}
	pl := &s.plan
	pl.mu.Lock()
	p, ok := pl.pos[key]
	if !ok || p <= pl.frontier {
		pl.mu.Unlock()
		return
	}
	pl.frontier = p
	pl.mu.Unlock()
	if s.belady != nil {
		s.belady.Advance(p + 1)
	}
	s.pumpPlan()
}

// pumpPlan schedules planned prefetches up to horizon entries ahead of
// the frontier. Already-resident keys are skipped with a counter-free
// probe (Store.Resident) so planning does not distort hit accounting. A
// full prefetch queue stops the pump without advancing the cursor — the
// counted backpressure is the queue's own PrefetchDrops — and the next
// trigger (a plan install, an observed read, or a planned fetch
// completing) resumes exactly where it stopped.
func (s *Server) pumpPlan() {
	horizon := int(s.planHorizon.Load())
	pl := &s.plan
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for pl.next < len(pl.keys) && pl.next <= pl.frontier+horizon {
		key := pl.keys[pl.next]
		if s.store.Resident(key) {
			pl.next++
			continue
		}
		path, off, length := planKeySpan(key, s.cfg.SegmentSize)
		fe, enqueued := s.scheduleFetch(fetchTask{key: key, path: path, off: off, len: length, planned: true}, false)
		if fe == nil {
			return
		}
		if enqueued {
			s.stats.planPrefetches.Add(1)
		}
		pl.next++
	}
}

// planSnapshot reports the installed plan length and current frontier
// (the Stats gauges).
func (s *Server) planSnapshot() (keys int, frontier int64) {
	pl := &s.plan
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.keys), int64(pl.frontier)
}

// planKeyPath strips a segment suffix ("path@idx") off a plan key so
// the dataset-dir check applies to the underlying file.
func planKeyPath(key string) string {
	if i := strings.LastIndexByte(key, '@'); i >= 0 {
		if _, err := strconv.ParseInt(key[i+1:], 10, 64); err == nil {
			return key[:i]
		}
	}
	return key
}

// planKeySpan resolves a plan key to the PFS byte range its fill must
// copy: whole file normally, one segment when the key carries a segment
// suffix and segment caching is on (plans in segment-striped mode name
// segment keys, because that is the key space reads consult).
func planKeySpan(key string, segSize int64) (path string, off, length int64) {
	if segSize <= 0 {
		return key, 0, 0
	}
	i := strings.LastIndexByte(key, '@')
	if i < 0 {
		return key, 0, 0
	}
	idx, err := strconv.ParseInt(key[i+1:], 10, 64)
	if err != nil {
		return key, 0, 0
	}
	return key[:i], idx * segSize, segSize
}

// PlanOrder enumerates an epoch's global access order: the path read at
// every step, straight off the oracle. pathAt maps a dataset index to
// its file path.
func PlanOrder(o AccessOracle, pathAt func(int) string) []string {
	order := make([]string, o.N())
	for step := 0; step < o.N(); step++ {
		order[step] = pathAt(o.At(step))
	}
	return order
}

// ServerPlan enumerates, in access order, the keys server srv will be
// asked for during the oracle's epoch under view — the per-server plan
// a rank installs on its own server without any central coordination:
// walk the key universe, keep what the placement view homes here
// (OwnedBy over r replicas), sort by the step the oracle assigns.
func ServerPlan(o AccessOracle, view *place.View, srv, r int, pathAt func(int) string) []string {
	type entry struct {
		step int
		path string
	}
	var owned []entry
	for idx := 0; idx < o.N(); idx++ {
		p := pathAt(idx)
		if view.OwnedBy(p, srv, r) {
			owned = append(owned, entry{step: o.StepOf(idx), path: p})
		}
	}
	// Insertion sort by step: owned is already nearly ordered only by
	// accident, but n is per-server plan size and this runs once per
	// epoch; keep it dependency-free and deterministic.
	for i := 1; i < len(owned); i++ {
		for j := i; j > 0 && owned[j].step < owned[j-1].step; j-- {
			owned[j], owned[j-1] = owned[j-1], owned[j]
		}
	}
	keys := make([]string, len(owned))
	for i, e := range owned {
		keys[i] = e.path
	}
	return keys
}

// InstallPlan distributes an epoch's access plan to the servers: order
// lists every interception-eligible path the job will read, in global
// access order; each server receives the ordered sub-list it homes
// (every replica home with Replicas > 1, so a failover read still finds
// planned bytes), chunked into OpPlan RPCs that append in order. gen
// tags the plan generation — reuse the epoch number — and horizon sets
// the servers' prefetch window (0 keeps their default). It returns the
// number of plan entries accepted; a failed server keeps its previous
// plan (prefetch degrades, reads are unaffected) and contributes the
// first error.
func (c *Client) InstallPlan(gen int64, order []string, horizon int) (int, error) {
	// Ordered slices, not a map keyed by server: the sim mirror shares
	// this shape and must iterate deterministically.
	groups := make([][]string, len(c.conns))
	for _, path := range order {
		abs, err := filepath.Abs(path)
		if err != nil || !c.Intercepts(abs) {
			continue
		}
		for _, srv := range c.view.Replicas(abs, c.cfg.Replicas) {
			groups[srv] = append(groups[srv], abs)
		}
	}
	installed := 0
	var firstErr error
	for srv, group := range groups {
		off := 0
		for off < len(group) {
			end := batchSpan(off, len(group), func(i int) int { return len(group[i]) })
			if end == off {
				end = off + 1 // unencodable path: let the server refuse it
			}
			blob, err := transport.EncodeBatchPaths(group[off:end])
			if err == nil {
				var resp *transport.Response
				resp, err = c.conns[srv].Call(&transport.Request{
					Op: transport.OpPlan, Handle: gen, Off: int64(off), Len: int64(horizon), Path: blob,
				})
				if err == nil {
					err = resp.Error()
					resp.Release()
				}
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("hvac client: install plan on server %d: %w", srv, err)
				}
				break // later chunks cannot append past a lost one
			}
			installed += end - off
			off = end
		}
	}
	return installed, firstErr
}
