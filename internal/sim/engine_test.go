package sim

import (
	"testing"
	"time"
)

// Resumes leave the heap in time order, whatever order they were pushed in.
func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	for i, at := range []Duration{30, 10, 20} {
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(at)
			got = append(got, i)
		})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %d, want 30", e.Now())
	}
}

// Resumes due at the same instant run in the order they were scheduled.
func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(5)
			got = append(got, i)
		})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("%d of 100 sleepers woke", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		p.Sleep(-50) // a wake-up in the past
		at = p.Now()
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Fatalf("past event ran at %d, want clamped to 100", at)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		wake = p.Now()
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if wake != Time(3*time.Second) {
		t.Fatalf("woke at %v, want 3s", time.Duration(wake))
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, n := range []string{"a", "b", "c"} {
			n := n
			e.Spawn(n, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Millisecond)
					trace = append(trace, n)
				}
			})
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	var end Time
	for i := 1; i <= 4; i++ {
		i := i
		wg.Add(1)
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(Duration(i) * time.Second)
			wg.Done()
		})
	}
	e.Spawn("joiner", func(p *Proc) {
		wg.Wait(p)
		end = p.Now()
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if end != Time(4*time.Second) {
		t.Fatalf("join at %v, want 4s", time.Duration(end))
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	var q Queue[int] // never fed
	e.Spawn("stuck", func(p *Proc) { q.Get(p) })
	err := e.RunAll()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if _, ok := err.(ErrDeadlock); !ok {
		t.Fatalf("got %T (%v), want ErrDeadlock", err, err)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(time.Second)
			count++
		}
	})
	if err := e.Run(Time(10*time.Second + time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("ticked %d times in 10s, want 10", count)
	}
	if e.Now() != Time(10*time.Second+time.Millisecond) {
		t.Fatalf("clock at %v after Run, want the limit", time.Duration(e.Now()))
	}
	// The rest of the run resumes where the limit stopped it.
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("ticked %d times in all, want 20", count)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	var q Queue[int]
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
			q.Put(i)
		}
		q.Close()
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("consumed %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := NewEngine()
	var q Queue[int]
	total := 0
	for c := 0; c < 4; c++ {
		e.Spawn("consumer", func(p *Proc) {
			for {
				_, ok := q.Get(p)
				if !ok {
					return
				}
				total++
				p.Sleep(time.Millisecond)
			}
		})
	}
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Put(i)
			if i%10 == 0 {
				p.Sleep(time.Millisecond / 2)
			}
		}
		q.Close()
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Fatalf("consumed %d, want 100", total)
	}
}
