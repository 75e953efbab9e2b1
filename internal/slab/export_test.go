package slab

// Tracked reports how many buffers the slab knows: out with a caller or
// free in a list, and not yet collected.
func Tracked() int {
	mu.Lock()
	defer mu.Unlock()
	return len(out)
}

// Drop empties the free lists, so that the buffers in them are the GC's.
func Drop() {
	mu.Lock()
	defer mu.Unlock()
	free = [len(free)][][]byte{}
}

// MaxSize is the largest size Get serves from a class.
const MaxSize = 1 << maxClass
