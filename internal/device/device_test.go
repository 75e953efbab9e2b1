package device

import (
	"testing"
	"time"

	"hvac/internal/sim"
)

func TestReadTiming(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, "d0", Profile{
		Name: "test", ReadBandwidth: 1e9, WriteBandwidth: 1e9,
		ReadLatency: time.Millisecond, Parallelism: 1, Capacity: 1e12,
	})
	var took time.Duration
	eng.Spawn("r", func(p *sim.Proc) { took = d.Read(p, 2_000_000_000) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := 2*time.Second + time.Millisecond
	if took != want {
		t.Fatalf("read took %v, want %v", took, want)
	}
}

func TestBandwidthCapsAggregate(t *testing.T) {
	// 8 concurrent 1 GB reads at 1 GB/s bus: the bus serialises them in
	// 8s no matter the queue depth.
	eng := sim.NewEngine()
	d := New(eng, "d0", Profile{
		Name: "test", ReadBandwidth: 1e9, WriteBandwidth: 1e9, Parallelism: 4, Capacity: 1e12,
	})
	var last sim.Time
	for i := 0; i < 8; i++ {
		eng.Spawn("r", func(p *sim.Proc) {
			d.Read(p, 1_000_000_000)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if last != sim.Time(8*time.Second) {
		t.Fatalf("makespan %v, want 8s (bus-bound)", time.Duration(last))
	}
}

func TestParallelismOverlapsLatency(t *testing.T) {
	// 8 tiny reads with 1s issue latency, queue depth 2: latency overlaps
	// two at a time -> ~4s, not 8s.
	eng := sim.NewEngine()
	d := New(eng, "d0", Profile{
		Name: "test", ReadBandwidth: 1e12, WriteBandwidth: 1e12,
		ReadLatency: time.Second, Parallelism: 2, Capacity: 1e12,
	})
	var last sim.Time
	for i := 0; i < 8; i++ {
		eng.Spawn("r", func(p *sim.Proc) {
			d.Read(p, 1)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(last); got > 4*time.Second+100*time.Millisecond {
		t.Fatalf("makespan %v, want ~4s (latency overlapped 2-deep)", got)
	}
}

func TestSummitNVMeAggregate(t *testing.T) {
	// The paper (§II-C): 4,096 node-local NVMe aggregate ~22.5 TB/s vs
	// GPFS 2.5 TB/s. Check our per-device read bandwidth reproduces that.
	p := SummitNVMe()
	agg := p.ReadBandwidth * 4096
	if agg < 22e12 || agg > 23.5e12 {
		t.Fatalf("aggregate NVMe bandwidth = %.1f TB/s, want ~22.5", agg/1e12)
	}
	if p.Capacity != 1600e9 {
		t.Fatalf("capacity = %d, want 1.6 TB (Table I)", p.Capacity)
	}
}
