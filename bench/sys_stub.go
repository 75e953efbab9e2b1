//go:build !linux

package main

import "time"

// The benchmark's reference platform is Linux; elsewhere it still builds
// and runs, but CPU time, peak RSS and the workdir's filesystem are not
// measured, so cpu_ns_per_byte reads 0 there.

func cpuTimes() (user, sys time.Duration, peakRSSMB float64) { return 0, 0, 0 }

func fsInfo(dir string) (fsType string, free int64) { return "unknown", 0 }

func kernelRelease() string { return "unknown" }
