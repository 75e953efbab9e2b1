// Package testutil holds shared helpers for HVAC's real-mode tests. The
// centrepiece is a leaktest-style goroutine check: real mode spawns a
// goroutine per accepted connection plus a data-mover pool, and the chaos
// tier's teardown invariant is that none of them survive Close.
package testutil

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// CheckLeaks snapshots the currently running goroutines and registers a
// cleanup that fails the test if goroutines started during the test are
// still running once everything the test itself cleaned up has shut down.
// Register it before any cleanup that stops servers or clients, so the
// leak check runs last.
func CheckLeaks(t testing.TB) {
	t.Helper()
	before := goroutineIDs()
	t.Cleanup(func() {
		leaked := Leaked(before, 2*time.Second)
		if len(leaked) > 0 {
			t.Errorf("testutil: %d goroutine(s) leaked:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
	})
}

// CheckBalance is CheckLeaks for any count of held resources: it reads
// count now and registers a cleanup that fails the test if the count has
// not come back once everything the test itself cleaned up has shut down.
// Register it before any cleanup that stops servers or clients. Teardown
// is asynchronous (a severed connection closes on its goroutine's way
// out), so the check polls like Leaked does.
func CheckBalance(t testing.TB, what string, count func() int64) {
	t.Helper()
	before := count()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for now := count(); now != before; now = count() {
			if time.Now().After(deadline) {
				t.Errorf("testutil: %d %s, %d when the test began", now, what, before)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// Leaked waits up to timeout for every goroutine not in the before
// snapshot (and not harness-internal) to exit, returning the stacks of
// the survivors. Teardown is asynchronous — a severed peer only notices
// on its next read — so the poll loop is part of the contract.
func Leaked(before map[string]bool, timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	var leaked []string
	for {
		leaked = leaked[:0]
		for id, stack := range goroutineStacks() {
			if !before[id] && interesting(stack) {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			sort.Strings(leaked)
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Snapshot returns the current goroutine-ID set, for use with Leaked.
func Snapshot() map[string]bool { return goroutineIDs() }

// interesting filters out the goroutines the test harness and runtime own.
func interesting(stack string) bool {
	for _, benign := range []string{
		"testing.Main(",
		"testing.tRunner(",
		"testing.(*T).Run(",
		"testing.(*M).",
		"testing.runFuzzing(",
		"testing.runFuzzTests(",
		"runtime.goexit",
		"created by runtime.gc",
		"runtime.gcBgMarkWorker",
		"runtime.bgsweep",
		"runtime.bgscavenge",
		"runtime.forcegchelper",
		"runtime.runfinq",
		"runtime.MHeap_Scavenger",
		"signal.signal_recv",
		"os/signal.loop",
		"runtime.ensureSigM",
	} {
		if strings.Contains(stack, benign) {
			return false
		}
	}
	return true
}

// goroutineStacks returns every goroutine's stack keyed by its header ID
// line (e.g. "goroutine 42").
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if id, ok := goroutineID(g); ok {
			out[id] = g
		}
	}
	return out
}

func goroutineIDs() map[string]bool {
	ids := make(map[string]bool)
	for id := range goroutineStacks() {
		ids[id] = true
	}
	return ids
}

// goroutineID extracts "goroutine N" from a stack dump's header line.
func goroutineID(stack string) (string, bool) {
	if !strings.HasPrefix(stack, "goroutine ") {
		return "", false
	}
	head, _, ok := strings.Cut(stack, " [")
	if !ok {
		return "", false
	}
	return head, true
}
