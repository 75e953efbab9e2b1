//go:build unix

package cachestore

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// mapCountLimit reads vm.max_map_count where the kernel publishes it
// (Linux); other platforms get Linux's default.
func mapCountLimit() int64 {
	b, err := os.ReadFile("/proc/sys/vm/max_map_count")
	if n, perr := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64); err == nil && perr == nil && n > 0 {
		return n
	}
	return 65530
}

// mapFile maps the first size bytes of f read-only and shared, so the
// mapping reads the page cache's own pages.
func mapFile(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// unmapFile undoes mapFile. Munmap of a range mapFile returned fails only
// on a bug, and nobody is left to tell then.
func unmapFile(m []byte) { _ = syscall.Munmap(m) }
