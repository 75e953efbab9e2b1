package testutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// CheckFDs is CheckBalance over the process's open descriptors; when the
// count has not come back it also logs what they point at.
func CheckFDs(t testing.TB) {
	t.Helper()
	open, ok := OpenFDs("")
	if !ok {
		return
	}
	before := len(open)
	t.Cleanup(func() { // runs after CheckBalance's, on its last listing
		if len(open) != before {
			t.Logf("testutil: now open:\n%s", strings.Join(open, "\n"))
		}
	})
	CheckBalance(t, "descriptors open", func() int64 {
		open, _ = OpenFDs("")
		return int64(len(open))
	})
}
