package testutil

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// KernelCounts reads this process's counts from /proc/self/io and
// getrusage(2); ok is false if either cannot be read. Reading them costs
// a few read-class calls and well under a kilobyte of reads.
func KernelCounts() (c Counts, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return Counts{}, false
	}
	fields := map[string]*int64{
		"syscr": &c.ReadCalls, "syscw": &c.WriteCalls,
		"rchar": &c.ReadBytes, "wchar": &c.WriteBytes,
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		if dst := fields[k]; dst != nil {
			if *dst, err = strconv.ParseInt(v, 10, 64); err != nil {
				return Counts{}, false
			}
			delete(fields, k)
		}
	}
	if len(fields) > 0 {
		return Counts{}, false
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return Counts{}, false
	}
	c.VolSwitches = int64(ru.Nvcsw) // an int32 on 386 and arm
	return c, true
}
