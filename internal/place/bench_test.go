package place

import (
	"fmt"
	"testing"
)

func benchPaths(n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/gpfs/alpine/imagenet21k/train/%07d.rec", i)
	}
	return paths
}

func BenchmarkModHashPlace(b *testing.B) {
	paths := benchPaths(1024)
	pol := ModHash{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Place(paths[i%1024], 1024)
	}
}

func BenchmarkRendezvousPlace(b *testing.B) {
	paths := benchPaths(1024)
	pol := Rendezvous{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Place(paths[i%1024], 1024)
	}
}

func BenchmarkModHashReplicas(b *testing.B) {
	paths := benchPaths(1024)
	pol := ModHash{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Replicas(paths[i%1024], 1024, 3)
	}
}
