package simnet

import (
	"testing"
	"time"

	"hvac/internal/sim"
)

func testConfig() Config {
	return Config{
		LinkBandwidth:  1e9,
		BaseLatency:    10 * time.Microsecond,
		RecvCopyRate:   10e9,
		MsgOverhead:    time.Microsecond,
		NICParallelism: 1,
	}
}

func TestSendTiming(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, testConfig(), 2)
	var took time.Duration
	eng.Spawn("tx", func(p *sim.Proc) { took = f.Send(p, 0, 1, 100_000_000) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// serialize 100MB @1GB/s = 100ms (+1us) + 10us latency + recv 10ms (+1us)
	want := 100*time.Millisecond + time.Microsecond + 10*time.Microsecond + 10*time.Millisecond + time.Microsecond
	if took != want {
		t.Fatalf("send took %v, want %v", took, want)
	}
}

func TestLocalSendSkipsWire(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, testConfig(), 2)
	var local, remote time.Duration
	eng.Spawn("tx", func(p *sim.Proc) {
		local = f.Send(p, 0, 0, 1_000_000)
		remote = f.Send(p, 0, 1, 1_000_000)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if local >= remote {
		t.Fatalf("local send (%v) should be faster than remote (%v)", local, remote)
	}
}

func TestHotSenderContention(t *testing.T) {
	// 4 receivers pulling 10 MB each from node 0 must serialise on node 0's
	// egress: makespan ~4x a single transfer's serialisation.
	eng := sim.NewEngine()
	f := New(eng, testConfig(), 5)
	var last sim.Time
	for i := 1; i <= 4; i++ {
		to := NodeID(i)
		eng.Spawn("rx", func(p *sim.Proc) {
			f.Send(p, 0, to, 10_000_000)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(last); got < 40*time.Millisecond {
		t.Fatalf("4x10MB from one sender took %v, want >= 40ms of serialisation", got)
	}
}

func TestDisjointPairsRunInParallel(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, testConfig(), 4)
	var last sim.Time
	for _, pair := range [][2]NodeID{{0, 1}, {2, 3}} {
		pair := pair
		eng.Spawn("tx", func(p *sim.Proc) {
			f.Send(p, pair[0], pair[1], 10_000_000)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Each: 10ms serialize + small; parallel, so < 15ms total.
	if got := time.Duration(last); got > 15*time.Millisecond {
		t.Fatalf("disjoint transfers took %v, want ~11ms (parallel)", got)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, testConfig(), 2)
	var took time.Duration
	eng.Spawn("c", func(p *sim.Proc) { took = f.RPC(p, 0, 1, 128, 128) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if took < 2*10*time.Microsecond {
		t.Fatalf("RPC %v faster than 2x base latency", took)
	}
	if took > 100*time.Microsecond {
		t.Fatalf("small RPC took %v, too slow", took)
	}
}

func TestCounters(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, testConfig(), 2)
	eng.Spawn("c", func(p *sim.Proc) {
		f.Send(p, 0, 1, 1000)
		f.RPC(p, 0, 1, 10, 10)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// An RPC carries no payload: only the bulk send counts.
	if f.BytesMoved() != 1000 {
		t.Fatalf("bytes = %d, want 1000", f.BytesMoved())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, testConfig(), 2)
	panicked := false
	eng.Spawn("c", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		f.Send(p, 0, 7, 10)
	})
	_ = eng.RunAll()
	if !panicked {
		t.Fatal("expected panic for out-of-range node")
	}
}

func TestSummitEDRProfile(t *testing.T) {
	cfg := SummitEDR()
	if cfg.LinkBandwidth != 25e9 {
		t.Fatalf("dual-rail EDR should be 25 GB/s, got %.0f", cfg.LinkBandwidth)
	}
	if cfg.BaseLatency > 2*time.Microsecond {
		t.Fatalf("EDR latency %v too high", cfg.BaseLatency)
	}
}
