//go:build unix

package cachestore

import "syscall"

// nofileLimit reads the soft RLIMIT_NOFILE (which the Go runtime has
// already raised to the hard limit by the time this package initialises).
func nofileLimit() int64 {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 256 // the POSIX floor's order of magnitude: nearly every lease opens its own descriptor
	}
	// An unlimited soft limit reads as all ones; no store holds a million files open.
	return int64(min(uint64(rl.Cur), 1<<20))
}
