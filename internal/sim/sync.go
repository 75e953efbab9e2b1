package sim

// WaitGroup counts outstanding simulated activities, like sync.WaitGroup but
// in virtual time.
type WaitGroup struct {
	n       int
	waiters []*Proc
}

// Add adjusts the counter by delta. It panics if the counter goes negative.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		for _, w := range wg.waiters {
			w.eng.parked--
			w.eng.scheduleResume(w, w.eng.now)
		}
		wg.waiters = nil
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait suspends p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.n == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.eng.parked++
	p.park()
}

// Barrier synchronises a fixed party count in virtual time, generation by
// generation: the i-th Wait of a generation releases everyone.
type Barrier struct {
	parties int
	arrived int
	waiters []*Proc
}

// NewBarrier returns a barrier for the given number of parties (>= 1).
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{parties: parties}
}

// Wait blocks p until all parties of the current generation have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		for _, w := range b.waiters {
			w.eng.parked--
			w.eng.scheduleResume(w, w.eng.now)
		}
		b.waiters = nil
		return
	}
	b.waiters = append(b.waiters, p)
	p.eng.parked++
	p.park()
}

// Queue is an unbounded FIFO channel in virtual time: producers Put items,
// consumers Get them, blocking when empty. Multiple consumers are served in
// arrival order.
type Queue[T any] struct {
	items   []T
	waiters []*Proc
	closed  bool
}

// Put appends an item and wakes one waiting consumer, if any.
func (q *Queue[T]) Put(item T) {
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	q.items = append(q.items, item)
	q.wakeOne()
}

func (q *Queue[T]) wakeOne() {
	if len(q.waiters) == 0 {
		return
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	w.eng.parked--
	w.eng.scheduleResume(w, w.eng.now)
}

// Get removes and returns the oldest item, blocking p until one is
// available. ok is false when the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (item T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters = append(q.waiters, p)
		p.eng.parked++
		p.park()
	}
	item = q.items[0]
	q.items = q.items[1:]
	return item, true
}

// Close marks the queue closed and wakes all waiting consumers so they can
// observe the close.
func (q *Queue[T]) Close() {
	q.closed = true
	for _, w := range q.waiters {
		w.eng.parked--
		w.eng.scheduleResume(w, w.eng.now)
	}
	q.waiters = nil
}
