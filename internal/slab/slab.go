// Package slab recycles whole-sample buffers from the loader, which knows
// when their bytes are dead, to Client.ReadAll, which refills them. Put
// takes back only a buffer Get handed out that is still out, and panics on
// a second Put; a buffer never put back is the GC's, and is forgotten.
package slab

import (
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
)

// At or below minSize, Go's small-object limit, Get is a make: a per-P
// cache hit a pool would slow. Classes run to transport.MaxFrame.
const (
	minSize  = 32 << 10
	minClass = 16
	maxClass = 26
)

var (
	mu sync.Mutex
	// free holds each class's put-back buffers, the latest last: never
	// more than the class ever had out at once.
	free [maxClass - minClass + 1][][]byte
	// out tells which of Get's live buffers are out, by address: a key
	// keeps nothing alive, and a finalizer drops it before reuse.
	out = map[uintptr]bool{}
)

// class returns the size class serving n bytes, or -1 for a plain make.
func class(n int) int {
	if n <= minSize || n > 1<<maxClass {
		return -1
	}
	return bits.Len(uint(n - 1))
}

// Get returns a buffer of length n. Its contents are unspecified.
func Get(n int) []byte {
	c := class(n)
	if c < 0 {
		return make([]byte, n)
	}
	mu.Lock()
	defer mu.Unlock()
	var b []byte
	if f := free[c-minClass]; len(f) > 0 {
		b, f[len(f)-1] = f[len(f)-1], nil
		free[c-minClass] = f[:len(f)-1]
	} else {
		// Held through the make: misses end once the class has enough.
		b = make([]byte, 1<<c)
		runtime.SetFinalizer(&b[0], forget)
	}
	out[uintptr(unsafe.Pointer(&b[0]))] = true
	return b[:n]
}

func forget(p *byte) {
	mu.Lock()
	delete(out, uintptr(unsafe.Pointer(p)))
	mu.Unlock()
}

// Clone copies b into a buffer from Get; a small b is appended, unzeroed.
func Clone(b []byte) []byte {
	if class(len(b)) < 0 {
		return append([]byte(nil), b...)
	}
	return append(Get(len(b))[:0], b...)
}

// Put gives back a buffer from Get once nothing reads or writes it.
func Put(b []byte) {
	c := class(cap(b))
	if c < 0 || cap(b) != 1<<c {
		return
	}
	k := uintptr(unsafe.Pointer(&b[:1][0]))
	mu.Lock()
	defer mu.Unlock()
	if isOut, ok := out[k]; ok && !isOut {
		panic("slab: buffer put back twice")
	} else if ok {
		out[k] = false
		free[c-minClass] = append(free[c-minClass], b[:cap(b)])
	}
}
