package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures events per second through a heap
// kept 64 deep: 64 processes sleep staggered spans.
func BenchmarkEventThroughput(b *testing.B) {
	eng := NewEngine()
	per := b.N/64 + 1
	for w := 0; w < 64; w++ {
		eng.Spawn("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				p.Sleep(Duration(w+1) * time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitch measures process suspend/resume round trips.
func BenchmarkProcSwitch(b *testing.B) {
	eng := NewEngine()
	eng.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ResetTimer()
	if err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContention measures queued resource usage.
func BenchmarkResourceContention(b *testing.B) {
	eng := NewEngine()
	r := NewResource(eng, "cpu", 2)
	per := b.N/8 + 1
	for w := 0; w < 8; w++ {
		eng.Spawn("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Use(p, time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
}
