// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing events in (time, sequence)
// order. Simulated activities are written as ordinary blocking Go code inside
// a Proc: each Proc runs on its own goroutine, but the engine resumes at most
// one Proc at a time and a Proc always parks back into the engine before any
// other event fires, so execution is single-threaded in effect and every run
// with the same seed is bit-for-bit reproducible.
//
// The kernel is the substrate for all simulated components in this
// repository: block devices (internal/device), the interconnect fabric
// (internal/simnet), the GPFS model (internal/pfs) and the training loop
// (internal/train).
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely to
// and from time.Duration.
type Duration = time.Duration

// Seconds renders t as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event resumes proc at virtual time at; seq breaks ties in scheduling
// order.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)     { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any       { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event     { return h[0] }
func (h *eventHeap) pushEv(e event) { heap.Push(h, e) }
func (h *eventHeap) popEv() event   { return heap.Pop(h).(event) }

// Engine is a discrete-event simulation engine. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap

	yield  chan struct{} // a running Proc signals here when it parks or exits
	parked int           // procs blocked on something other than the event heap
}

// NewEngine returns a fresh engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Proc is a simulated process: a goroutine whose blocking operations
// (Sleep, resource acquisition, channel waits) consume virtual time.
type Proc struct {
	eng    *Engine
	resume chan struct{}
	name   string
}

// Name returns the name given at Spawn, for diagnostics.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn starts fn as a simulated process at the current virtual time.
func (e *Engine) Spawn(name string, fn func(*Proc)) {
	p := &Proc{eng: e, resume: make(chan struct{}), name: name}
	e.seq++
	e.events.pushEv(event{at: e.now, seq: e.seq, proc: p})
	go func() {
		<-p.resume // wait for the engine to run our start event
		fn(p)
		e.yield <- struct{}{}
	}()
}

// scheduleResume arranges for p to continue at time at.
func (e *Engine) scheduleResume(p *Proc, at Time) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.pushEv(event{at: at, seq: e.seq, proc: p})
}

// park suspends the calling proc until the engine resumes it. The caller must
// already have arranged for a wake-up (a scheduled resume or registration on
// a wait list).
func (p *Proc) park() {
	p.eng.yield <- struct{}{}
	<-p.resume
}

// Sleep suspends the process for a span of virtual time. Negative durations
// are treated as zero.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleResume(p, p.eng.now.Add(d))
	p.park()
}

// ErrDeadlock is returned by Run when processes remain blocked but no events
// are pending, meaning the simulation can make no further progress.
type ErrDeadlock struct {
	At      Time
	Blocked int
}

func (e ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d process(es) blocked with no pending events", time.Duration(e.At), e.Blocked)
}

// Run executes events until the event heap is exhausted or until virtual
// time would exceed until (use RunAll for no limit). It returns an
// ErrDeadlock if blocked processes remain when the heap drains.
func (e *Engine) Run(until Time) error {
	for len(e.events) > 0 {
		if e.events.peek().at > until {
			e.now = until
			return nil
		}
		ev := e.events.popEv()
		e.now = ev.at
		ev.proc.resume <- struct{}{}
		<-e.yield
	}
	if e.parked > 0 {
		return ErrDeadlock{At: e.now, Blocked: e.parked}
	}
	return nil
}

// RunAll executes events until none remain.
func (e *Engine) RunAll() error { return e.Run(Time(1<<62 - 1)) }

// Events reports the total number of events ever scheduled. Because every
// event carries the sequence number at which it was scheduled, two runs of
// the same seeded model are identical exactly when their event counts and
// final clocks agree — the count is a cheap replay fingerprint used by the
// determinism regression tests.
func (e *Engine) Events() uint64 { return e.seq }
