package sim

// Resource is a first-come-first-served queue with a fixed number of
// identical servers. It models contended hardware: a metadata-server pool,
// an NVMe device's internal parallelism, a CPU worker, a network link.
//
// A Proc occupies one server for an explicit service duration via Use, or
// for a data-dependent duration via UseBytes when the resource was built
// with NewRateResource.
type Resource struct {
	eng     *Engine
	name    string
	servers int
	rate    float64 // bytes per second for UseBytes; 0 if duration-only
	perOp   Duration

	inUse  int
	queue  []*Proc
	busyNS int64 // total server-occupancy time, summed over servers
}

// NewResource returns a duration-based resource with the given number of
// servers (must be >= 1).
func NewResource(eng *Engine, name string, servers int) *Resource {
	if servers < 1 {
		panic("sim: resource needs at least one server")
	}
	return &Resource{eng: eng, name: name, servers: servers}
}

// NewRateResource returns a resource whose UseBytes service time is
// perOp + bytes/rate. rate is in bytes per second.
func NewRateResource(eng *Engine, name string, servers int, rate float64, perOp Duration) *Resource {
	r := NewResource(eng, name, servers)
	r.rate = rate
	r.perOp = perOp
	return r
}

// acquire blocks p until a server is free and claims it.
func (r *Resource) acquire(p *Proc) {
	if r.inUse < r.servers && len(r.queue) == 0 {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.eng.parked++
	p.park()
	// Whoever released transferred their server slot to us; inUse is
	// unchanged across the handoff.
}

// release frees p's server, handing it directly to the next waiter if any.
func (r *Resource) release() {
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		next.eng.parked--
		next.eng.scheduleResume(next, next.eng.now)
		return
	}
	r.inUse--
}

// Acquire claims one server of r, queueing FCFS, and returns a release
// function that must be called exactly once from simulation context. It is
// the composite-usage form of Use: the caller may perform other simulated
// activities (device I/O, nested resource usage) while holding the server.
func (r *Resource) Acquire(p *Proc) (release func()) {
	r.acquire(p)
	held := p.eng.now
	released := false
	return func() {
		if released {
			panic("sim: double release of resource " + r.name)
		}
		released = true
		r.busyNS += int64(p.eng.now.Sub(held))
		r.release()
	}
}

// Use occupies one server of r for the given service duration, queueing
// FCFS behind earlier arrivals. It returns the total time spent (queueing
// plus service).
func (r *Resource) Use(p *Proc, service Duration) Duration {
	start := p.eng.now
	r.acquire(p)
	r.busyNS += int64(service)
	p.Sleep(service)
	r.release()
	return p.eng.now.Sub(start)
}

// UseBytes occupies one server for perOp + bytes/rate. It panics if the
// resource was not built with NewRateResource.
func (r *Resource) UseBytes(p *Proc, bytes int64) Duration {
	if r.rate <= 0 {
		panic("sim: UseBytes on a resource without a rate")
	}
	service := r.perOp + Duration(float64(bytes)/r.rate*1e9)
	return r.Use(p, service)
}

// Utilization reports mean per-server utilization over [0, now].
func (r *Resource) Utilization() float64 {
	t := r.eng.now
	if t == 0 {
		return 0
	}
	return float64(r.busyNS) / float64(int64(t)*int64(r.servers))
}
