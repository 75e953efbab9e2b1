package main

import (
	"fmt"
	"syscall"
	"time"
)

// cpuTimes returns the process's user and system CPU time so far
// (getrusage(RUSAGE_SELF)) and its peak resident set in MiB.
func cpuTimes() (user, sys time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// fsInfo names the filesystem holding dir and its free bytes.
func fsInfo(dir string) (fsType string, free int64) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", 0
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x58465342: "xfs",
		0x794c7630: "overlayfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	name, ok := names[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("0x%x", int64(st.Type))
	}
	return name, int64(st.Bavail) * st.Bsize
}

// kernelRelease reports uname -r.
func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
