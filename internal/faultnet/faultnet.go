// Package faultnet is a deterministic fault-injecting decorator over the
// transport.Transport interface: the harness behind HVAC's chaos test
// tier. The paper's resilience claim (§III-H — a client falls back to a
// replica or the PFS when an HVAC server dies) is only as good as the
// failure modes it is exercised against, so faultnet synthesises them on
// demand: connection refused, mid-call disconnect, response delay, hang,
// truncated frame and corrupted frame.
//
// Every decision is a pure function of (schedule seed, server name, RPC
// op, per-(server,op) call index), so a chaos run replays bit-for-bit for
// a fixed seed — the same contract the simulation kernel makes
// (DESIGN.md §1.3). The injector records a decision trace that tests diff
// across runs to assert exactly that.
package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"hvac/internal/transport"
)

// Fault enumerates the injectable failure modes.
type Fault uint8

const (
	// None lets the call through untouched.
	None Fault = iota
	// Refuse fails the call before the request leaves the client, like a
	// dead server's connection-refused.
	Refuse
	// Disconnect delivers the request to the server (its side effects
	// happen) but severs the link before the response arrives.
	Disconnect
	// Delay holds the response for Rule.Delay before delivering it.
	Delay
	// Hang never delivers the response; the call blocks until the
	// schedule's HangTimeout (or the injector's Close) and then fails.
	Hang
	// Truncate cuts the encoded response frame short, so the client's
	// decoder sees an unexpected EOF.
	Truncate
	// Corrupt flips bits in the encoded response frame, so the client's
	// decoder sees a damaged frame.
	Corrupt
	// Kill marks the server dead from this call on: the triggering call
	// and every later call to the same server — any op — fail refused.
	// One Kill rule at a chosen call index models a server crashing at
	// one instant mid-epoch.
	Kill
)

// String names the fault for traces and error messages.
func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Refuse:
		return "refuse"
	case Disconnect:
		return "disconnect"
	case Delay:
		return "delay"
	case Hang:
		return "hang"
	case Truncate:
		return "truncate"
	case Corrupt:
		return "corrupt"
	case Kill:
		return "kill"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}

// Injection errors. Wrapped errors name the server, so a client with
// fallback disabled surfaces which link failed.
var (
	// ErrRefused is the injected connection-refused failure.
	ErrRefused = errors.New("faultnet: connection refused")
	// ErrDisconnected is the injected mid-call connection reset.
	ErrDisconnected = errors.New("faultnet: connection reset mid-call")
	// ErrHung is returned when a hung call hits the schedule's
	// HangTimeout or the injector is closed.
	ErrHung = errors.New("faultnet: call hung")
	// ErrKilled is returned for every call to a server a Kill rule has
	// marked dead.
	ErrKilled = errors.New("faultnet: server killed")
	// ErrUndetectedCorruption is returned when a damaged frame happens to
	// still decode; the injector refuses to deliver silently corrupted
	// bytes, because the chaos invariants require byte-identical reads.
	ErrUndetectedCorruption = errors.New("faultnet: corrupted frame decoded without error")
)

// Rule scopes one fault to a (server, op, call-index) set. The zero
// index-selector (Every == 0, Prob == 0) fires on every matching call
// from Offset on; Every == n fires on every nth matching call; Prob == p
// fires on each matching call with seeded probability p.
type Rule struct {
	// Server restricts the rule to one server name; "" matches all.
	Server string
	// Op restricts the rule to one RPC type; 0 matches all.
	Op transport.Op
	// Offset is the first per-(server,op) call index the rule can fire on.
	Offset int64
	// Every fires the rule on call indices Offset, Offset+Every, ....
	Every int64
	// Prob fires the rule on each eligible call with this probability,
	// drawn deterministically from the schedule seed.
	Prob float64
	// Fault is the failure to inject.
	Fault Fault
	// Delay is the hold time for Fault == Delay.
	Delay time.Duration
}

// matches reports whether the rule fires for call index idx of (server,
// op). ri decorrelates the probability streams of co-scoped rules.
func (r Rule) matches(seed uint64, server string, op transport.Op, idx int64, ri int) bool {
	if r.Server != "" && r.Server != server {
		return false
	}
	if r.Op != 0 && r.Op != op {
		return false
	}
	if idx < r.Offset {
		return false
	}
	if r.Every > 0 {
		return (idx-r.Offset)%r.Every == 0
	}
	if r.Prob > 0 {
		return unit(eventSeed(seed, server, op, idx)^uint64(ri)*0x9e3779b97f4a7c15) < r.Prob
	}
	return true
}

// Schedule is a complete fault plan: a seed plus an ordered rule list
// (first matching rule wins, per call).
type Schedule struct {
	// Seed drives every probabilistic decision and every frame-damage
	// pattern; equal seeds replay equal runs.
	Seed uint64
	// HangTimeout bounds Hang faults; 0 means 250 ms.
	HangTimeout time.Duration
	// Rules is the ordered fault plan.
	Rules []Rule
}

// Event is one injection decision, None included: the full decision
// trace, diffed by the determinism tests.
type Event struct {
	Server string
	Op     transport.Op
	Index  int64
	Fault  Fault
}

type countKey struct {
	server string
	op     transport.Op
}

// Injector evaluates a Schedule and decorates transports with it. One
// injector spans a whole cluster: wrap every server link of a client with
// the same injector and scope rules by server name.
type Injector struct {
	sched Schedule

	mu     sync.Mutex
	counts map[countKey]int64
	trace  []Event
	dead   map[string]bool

	closeOnce sync.Once
	closed    chan struct{}
}

// New builds an injector for the schedule.
func New(sched Schedule) *Injector {
	if sched.HangTimeout <= 0 {
		sched.HangTimeout = 250 * time.Millisecond
	}
	return &Injector{
		sched:  sched,
		counts: make(map[countKey]int64),
		dead:   make(map[string]bool),
		closed: make(chan struct{}),
	}
}

// Close releases any calls currently blocked in a Hang fault. Wrapped
// transports stay usable.
func (in *Injector) Close() {
	in.closeOnce.Do(func() { close(in.closed) })
}

// Trace returns a copy of the decision trace so far.
func (in *Injector) Trace() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.trace...)
}

// Injected counts the non-None decisions so far.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, e := range in.trace {
		if e.Fault != None {
			n++
		}
	}
	return n
}

// DeadServers returns the names of servers a Kill rule has marked dead,
// in no particular order.
func (in *Injector) DeadServers() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.dead))
	for s := range in.dead {
		out = append(out, s)
	}
	return out
}

// Wrap decorates t with the injector's schedule under the given server
// name (rule scoping and traces use the name, not t's address, so runs
// with ephemeral ports stay comparable).
func (in *Injector) Wrap(name string, t transport.Transport) transport.Transport {
	return &faultTransport{in: in, name: name, inner: t}
}

// next assigns the fault for the next call to (server, op), records it,
// and returns the call's per-(server,op) index.
func (in *Injector) next(server string, op transport.Op) (Fault, Rule, int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := countKey{server, op}
	idx := in.counts[k]
	in.counts[k] = idx + 1
	fault, rule := None, Rule{}
	if in.dead[server] {
		// A killed server never answers again, whatever the rules say.
		fault = Kill
	} else {
		for ri, r := range in.sched.Rules {
			if r.matches(in.sched.Seed, server, op, idx, ri) {
				fault, rule = r.Fault, r
				break
			}
		}
		if fault == Kill {
			in.dead[server] = true
		}
	}
	in.trace = append(in.trace, Event{Server: server, Op: op, Index: idx, Fault: fault})
	return fault, rule, idx
}

// faultTransport is the decorator: it consults the injector before each
// call and synthesises the assigned failure.
type faultTransport struct {
	in    *Injector
	name  string
	inner transport.Transport
}

func (ft *faultTransport) Addr() string { return ft.inner.Addr() }
func (ft *faultTransport) Close()       { ft.inner.Close() }

// Retries forwards the inner transport's retry accounting, if any.
func (ft *faultTransport) Retries() int64 {
	if rc, ok := ft.inner.(interface{ Retries() int64 }); ok {
		return rc.Retries()
	}
	return 0
}

func (ft *faultTransport) Call(req *transport.Request) (*transport.Response, error) {
	fault, rule, idx := ft.in.next(ft.name, req.Op)
	switch fault {
	case None:
		return ft.inner.Call(req)
	case Refuse:
		return nil, fmt.Errorf("faultnet: server %s: %w", ft.name, ErrRefused)
	case Kill:
		return nil, fmt.Errorf("faultnet: server %s: %w", ft.name, ErrKilled)
	case Disconnect:
		// The request reaches the server — its side effects (open
		// counted, copy scheduled) happen — but the response is lost.
		// Recycle its pooled payload: losing the frame must not also
		// lose the buffer.
		if resp, err := ft.inner.Call(req); err == nil {
			resp.Release()
		}
		return nil, fmt.Errorf("faultnet: server %s: %w", ft.name, ErrDisconnected)
	case Delay:
		time.Sleep(rule.Delay)
		return ft.inner.Call(req)
	case Hang:
		timer := time.NewTimer(ft.in.sched.HangTimeout)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ft.in.closed:
		}
		return nil, fmt.Errorf("faultnet: server %s: %w", ft.name, ErrHung)
	case Truncate, Corrupt:
		resp, err := ft.inner.Call(req)
		if err != nil {
			return nil, err
		}
		err = damageResponse(resp, fault, eventSeed(ft.in.sched.Seed, ft.name, req.Op, idx))
		resp.Release()
		return nil, fmt.Errorf("faultnet: server %s: %s fault: %w", ft.name, fault, err)
	default:
		return nil, fmt.Errorf("faultnet: server %s: unknown fault %d", ft.name, fault)
	}
}

// damageResponse encodes resp, damages the frame deterministically, and
// returns the decode error the client would have seen on the wire. A
// damaged frame that still decodes is refused rather than delivered.
func damageResponse(resp *transport.Response, fault Fault, seed uint64) error {
	var buf bytes.Buffer
	if err := transport.WriteResponse(&buf, resp); err != nil {
		return err
	}
	c := NewCorrupter(seed)
	frame := buf.Bytes()
	if fault == Truncate {
		frame = c.Truncate(frame)
	} else {
		frame = c.BitFlip(frame)
	}
	decoded, err := transport.ReadResponse(bytes.NewReader(frame))
	if err != nil {
		return err
	}
	// The damaged frame decoded anyway; drop the phantom response back
	// into the pool before refusing to deliver it.
	decoded.Release()
	return ErrUndetectedCorruption
}

// eventSeed derives the deterministic per-event stream for (seed, server,
// op, index).
func eventSeed(seed uint64, server string, op transport.Op, idx int64) uint64 {
	// FNV-1a over the server name, then SplitMix64 avalanche over the
	// remaining coordinates.
	h := uint64(14695981039346656037)
	for i := 0; i < len(server); i++ {
		h ^= uint64(server[i])
		h *= 1099511628211
	}
	h = splitmix64(h ^ seed)
	h = splitmix64(h ^ uint64(op)<<56 ^ uint64(idx))
	return h
}

// unit maps a 64-bit hash to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// splitmix64 is the SplitMix64 mixer (same construction as the transport
// retry jitter): a bijective avalanche function for deriving independent
// streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
