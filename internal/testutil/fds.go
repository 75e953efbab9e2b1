package testutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// OpenFDs lists what this process's open descriptors point at, keeping
// the targets that start with prefix ("" keeps all). It reads
// /proc/self/fd, so the listing includes the descriptor it reads through;
// where there is no /proc it returns nil and ok false, and checks built
// on it are vacuous.
func OpenFDs(prefix string) (targets []string, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, false
	}
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, prefix) {
			targets = append(targets, target)
		}
	}
	return targets, true
}

// CheckFDs is CheckLeaks for descriptors: it counts the process's open
// descriptors and registers a cleanup that fails the test if the count has
// not come back once everything the test itself cleaned up has shut down.
// Register it before any cleanup that stops servers or clients. Teardown
// is asynchronous (a severed connection closes on its goroutine's way
// out), so the check polls like Leaked does.
func CheckFDs(t testing.TB) {
	t.Helper()
	before, ok := OpenFDs("")
	if !ok {
		return
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			after, _ := OpenFDs("")
			if len(after) == len(before) {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("testutil: %d descriptors open, %d when the test began; now open:\n%s", len(after), len(before), strings.Join(after, "\n"))
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
