package slab_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"hvac/internal/slab"
	"hvac/internal/transport"
)

// The classes must reach the largest payload one read can carry, so that
// no whole-sample ReadAll falls back to a plain make.
func TestClassesReachMaxFrame(t *testing.T) {
	if slab.MaxSize != transport.MaxFrame {
		t.Fatalf("largest class %d, transport.MaxFrame %d", slab.MaxSize, transport.MaxFrame)
	}
}

// TestGetSizes pins len and cap at each class edge: a plain make at or
// below 4 KiB and above the largest class, a power-of-two class between.
func TestGetSizes(t *testing.T) {
	cases := []struct{ n, cap int }{
		{0, 0},
		{1, 1},
		{4 << 10, 4 << 10},
		{4<<10 + 1, 8 << 10},
		{32 << 10, 32 << 10},
		{32<<10 + 1, 64 << 10},
		{64 << 10, 64 << 10},
		{64<<10 + 1, 128 << 10},
		{8 << 20, 8 << 20},
		{8<<20 + 1, 16 << 20},
		{transport.MaxFrame, transport.MaxFrame},
		{transport.MaxFrame + 1, transport.MaxFrame + 1},
	}
	for _, c := range cases {
		b := slab.Get(c.n)
		if len(b) != c.n || cap(b) != c.cap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.cap)
		}
		slab.Put(b)
	}
}

// TestForeignPutIgnored hands Put slices Get never handed out, each with a
// class-sized capacity, and checks that none is tracked or handed out.
func TestForeignPutIgnored(t *testing.T) {
	settle(t)
	p := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(p, make([]byte, 100<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	read, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var own [128 << 10]byte
	fresh := make([]byte, 64<<10)
	small := make([]byte, 32<<10)
	ours := slab.Get(1 << 20)
	foreign := [][]byte{read, own[:], own[: 64<<10 : 64<<10], own[: 8<<10 : 8<<10], fresh, small, ours[64<<10 : 128<<10 : 128<<10]}
	for _, b := range foreign {
		slab.Put(b)
	}
	if n := slab.Tracked(); n != 1 {
		t.Fatalf("%d buffers tracked after foreign Puts, want 1 (the one Get handed out)", n)
	}
	for i := 0; i < 16; i++ {
		for _, n := range []int{8 << 10, 32 << 10, 64 << 10, 128 << 10} {
			got := slab.Get(n)
			for _, b := range foreign {
				if &got[0] == &b[:1][0] {
					t.Fatalf("Get(%d) handed out a foreign buffer", n)
				}
			}
			slab.Put(got)
		}
	}
	slab.Put(ours)
}

// TestPutBufferRefilledNext pins the reuse order: the buffer put back last
// is the one the next Get of its class hands out.
func TestPutBufferRefilledNext(t *testing.T) {
	a, b := slab.Get(3<<20), slab.Get(3<<20)
	slab.Put(a)
	slab.Put(b)
	if got := slab.Get(4 << 20); &got[0] != &b[0] {
		t.Fatal("Get did not hand out the buffer put back last")
	}
	if got := slab.Get(3<<20 + 1); &got[0] != &a[0] {
		t.Fatal("Get did not hand out the remaining put-back buffer")
	}
}

func TestDoublePutPanics(t *testing.T) {
	b := slab.Get(1 << 20)
	slab.Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same buffer did not panic")
		}
	}()
	slab.Put(b)
}

// TestDroppedBufferForgotten drops buffers without Put: the GC collects
// them and the slab's tracking goes with them.
func TestDroppedBufferForgotten(t *testing.T) {
	settle(t)
	for i := 0; i < 8; i++ {
		b := slab.Get(256 << 10)
		b[0] = byte(i)
	}
	if n := slab.Tracked(); n != 8 {
		t.Fatalf("%d buffers tracked after 8 Gets, want 8", n)
	}
	settle(t)
}

// settle drops the free lists and collects until the slab tracks nothing:
// every buffer of earlier tests is then unreachable, whether it was put
// back or dropped. Finalizers run on their own goroutine after a GC, so
// this polls.
func settle(t *testing.T) {
	t.Helper()
	slab.Drop()
	deadline := time.Now().Add(10 * time.Second)
	for slab.Tracked() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d buffers still tracked after their last reference was dropped", slab.Tracked())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
