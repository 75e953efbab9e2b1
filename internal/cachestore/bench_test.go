package cachestore

import (
	"fmt"
	"testing"
)

func benchPolicy(b *testing.B, mk func() Policy) {
	b.Helper()
	ix := NewIndex(1<<20, mk())
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("/gpfs/train/%07d.rec", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if !ix.Contains(k) {
			// 1 KB entries: steady-state eviction churn.
			if _, err := ix.Insert(k, 1<<10); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkIndexRandom(b *testing.B) { benchPolicy(b, func() Policy { return NewRandom(1) }) }
func BenchmarkIndexLRU(b *testing.B)    { benchPolicy(b, NewLRU) }
func BenchmarkIndexFIFO(b *testing.B)   { benchPolicy(b, NewFIFO) }
