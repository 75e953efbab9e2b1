//go:build !unix

package cachestore

// nofileLimit has no rlimit to read here; 1 024 is the smallest default
// the supported platforms ship with.
func nofileLimit() int64 { return 1024 }
