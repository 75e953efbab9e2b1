package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResourceSingleServerSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, time.Second)
			ends = append(ends, p.Now())
		})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("end[%d] = %v, want %v", i, time.Duration(ends[i]), time.Duration(w))
		}
	}
}

func TestResourceMultiServerParallel(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "pool", 3)
	var last Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, time.Second)
			last = p.Now()
		})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if last != Time(time.Second) {
		t.Fatalf("3 jobs on 3 servers finished at %v, want 1s", time.Duration(last))
	}
}

func TestResourceFCFS(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.After(Duration(i)*time.Millisecond, func() {
			e.Spawn("user", func(p *Proc) {
				r.Use(p, 100*time.Millisecond)
				order = append(order, i)
			})
		})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("not FCFS: %v", order)
		}
	}
}

func TestRateResource(t *testing.T) {
	e := NewEngine()
	// 1 GB/s, 1ms per-op overhead.
	r := NewRateResource(e, "disk", 1, 1e9, time.Millisecond)
	var end Time
	e.Spawn("reader", func(p *Proc) {
		r.UseBytes(p, 500_000_000) // 0.5s transfer + 1ms
		end = p.Now()
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := Time(500*time.Millisecond + time.Millisecond)
	if end != want {
		t.Fatalf("end = %v, want %v", time.Duration(end), time.Duration(want))
	}
}

func TestResourceUtilizationAndWait(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	var waited Duration
	for i := 0; i < 2; i++ {
		e.Spawn("user", func(p *Proc) {
			// Use returns queueing plus service: the second user waits 1s.
			waited = r.Use(p, time.Second) - time.Second
		})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := r.Utilization(); got < 0.99 || got > 1.01 {
		t.Fatalf("utilization = %f, want ~1.0", got)
	}
	if waited != time.Second {
		t.Fatalf("wait = %v, want 1s", waited)
	}
}

// Property: with s servers and n equal jobs of duration d all arriving at
// t=0, the makespan is ceil(n/s)*d.
func TestResourceMakespanProperty(t *testing.T) {
	f := func(servers, jobs uint8) bool {
		s := int(servers%8) + 1
		n := int(jobs%32) + 1
		e := NewEngine()
		r := NewResource(e, "pool", s)
		var last Time
		for i := 0; i < n; i++ {
			e.Spawn("u", func(p *Proc) {
				r.Use(p, time.Second)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.RunAll(); err != nil {
			return false
		}
		rounds := (n + s - 1) / s
		return last == Time(rounds)*Time(time.Second)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUseBytesWithoutRatePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	panicked := false
	e.Spawn("u", func(p *Proc) {
		defer func() { panicked = recover() != nil }()
		r.UseBytes(p, 10)
	})
	_ = e.RunAll()
	if !panicked {
		t.Fatal("expected panic from UseBytes without rate")
	}
}
