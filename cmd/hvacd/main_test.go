package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hvac"
	"hvac/internal/testutil"
	"hvac/internal/transport"
)

// syncBuffer is a bytes.Buffer the daemon can write to while the test
// reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingRe = regexp.MustCompile(`hvacd: serving \S+ on (\S+) `)

// await polls out until find returns a match, failing the test after 5 s.
func await(t *testing.T, out *syncBuffer, what string, find func(string) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !find(out.String()); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within 5 s; stdout:\n%s", what, out)
		}
	}
}

// lastStats parses the last -stats line in s — "hvacd: " and then nothing
// but Name=value fields — into its integer fields by name (a duration is
// left out), and reports how many such lines s holds.
func lastStats(s string) (last map[string]int64, lines int) {
	all := strings.Split(s, "\n")
	for _, line := range all[:len(all)-1] { // the last is partial or empty
		rest, ok := strings.CutPrefix(line, "hvacd: ")
		if !ok {
			continue
		}
		fields := map[string]int64{}
		for _, kv := range strings.Fields(rest) {
			name, value, ok := strings.Cut(kv, "=")
			if !ok {
				fields = nil
				break
			}
			if n, err := strconv.ParseInt(value, 10, 64); err == nil {
				fields[name] = n
			}
		}
		if len(fields) > 0 {
			last, lines = fields, lines+1
		}
	}
	return last, lines
}

// passedAfter awaits two -stats lines written after the call — the first
// may have been formatted before it — and returns the last one's Passed,
// failing the test unless that line shows a local connection and none
// refused.
func passedAfter(t *testing.T, out *syncBuffer) int64 {
	t.Helper()
	from := len(out.String())
	var st map[string]int64
	await(t, out, "two -stats lines", func(s string) bool {
		var n int
		st, n = lastStats(s[from:])
		return n >= 2
	})
	if st["LocalConns"] == 0 || st["LocalRefused"] != 0 {
		t.Fatalf("-stats line with LocalConns=%d LocalRefused=%d, want LocalConns > 0 and LocalRefused=0", st["LocalConns"], st["LocalRefused"])
	}
	return st["Passed"]
}

// TestDaemon drives hvacd in process: usage errors exit 2 before or just
// after the server starts, and a serving daemon caches what it serves
// (under -evict keep, until full, then refusing fills: NotAdmitted=),
// prints its -stats line, and on cancellation shuts down with exit 0,
// leaving no goroutine (the -stats ticker included), descriptor or pooled
// response behind.
func TestDaemon(t *testing.T) {
	pfs := t.TempDir()
	file := filepath.Join(pfs, "f0.rec")
	want := bytes.Repeat([]byte("hvacd"), 4096)
	if err := os.WriteFile(file, want, 0o644); err != nil {
		t.Fatal(err)
	}
	big := filepath.Join(pfs, "f1.rec")
	wantBig := bytes.Repeat([]byte("hvacd-large"), 48<<10) // 528 KiB: one warm read passes the descriptor
	if err := os.WriteFile(big, wantBig, 0o644); err != nil {
		t.Fatal(err)
	}
	small := filepath.Join(pfs, "f2.rec")
	wantSmall := bytes.Repeat([]byte("hvacd-small"), 1024)
	if err := os.WriteFile(small, wantSmall, 0o644); err != nil {
		t.Fatal(err)
	}
	// Each daemon keeps its files in a store directory of its own inside
	// the cache dir, so the rows can share it.
	cache := filepath.Join(t.TempDir(), "nvme")

	for _, tc := range []struct {
		name string
		args []string
		code int
		// serve, if set, runs against the daemon while it serves at addr;
		// the context is cancelled when it returns.
		serve func(t *testing.T, addr string, stdout *syncBuffer)
	}{
		{"missing -pfs", []string{"-cache", cache}, 2, nil},
		{"unknown -evict", []string{"-pfs", pfs, "-cache", cache, "-evict", "mru"}, 2, nil},
		{"retired -evict clairvoyant", []string{"-pfs", pfs, "-cache", cache, "-evict", "clairvoyant"}, 2, nil},
		{"-self outside -peers", []string{"-listen", "127.0.0.1:0", "-pfs", pfs, "-cache", cache,
			"-peers", "127.0.0.1:1,127.0.0.1:2", "-self", "2"}, 2, nil},
		{"serve", []string{"-listen", "127.0.0.1:0", "-pfs", pfs, "-cache", cache, "-stats", "10ms"}, 0,
			func(t *testing.T, addr string, stdout *syncBuffer) {
				cli, err := hvac.NewClient(hvac.ClientConfig{Servers: []string{addr}, DatasetDir: pfs})
				if err != nil {
					t.Fatal(err)
				}
				defer cli.Close()
				for i, wantHits := range []int64{0, 1} {
					got, err := cli.ReadAll(file)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("read %d: got %d bytes, want the file's %d", i+1, len(got), len(want))
					}
					// The fill writes behind the first read; the second
					// read must find it committed. Each read counts one in Reads.
					await(t, stdout, "-stats line with the fill done", func(s string) bool {
						st, _ := lastStats(s)
						return st["Reads"] == int64(i+1) && st["Hits"] == wantHits && st["Misses"] == 1
					})
				}
				if st := cli.Stats(); st.Redirected != 2 || st.Fallbacks != 0 {
					t.Fatalf("client stats %+v, want 2 redirected opens and no fallback", st)
				}
				if transport.LocalSocket() {
					// A client on the daemon's node reaches it through the
					// local socket, as its own user: nothing is refused, and
					// every warm payload of 8 KiB or more takes the cache
					// file's descriptor (Passed=) — the second read of f0
					// above, and the two chunks of the large file's second
					// read (its cold read may pass chunks too, once its
					// fill has committed).
					p0 := passedAfter(t, stdout)
					for i := 0; i < 2; i++ {
						got, err := cli.ReadAll(big)
						if err != nil || !bytes.Equal(got, wantBig) {
							t.Fatalf("read %d of %s: %d bytes, %v", i+1, big, len(got), err)
						}
						await(t, stdout, "-stats line with the large file's fill done", func(s string) bool {
							st, _ := lastStats(s)
							return st["Misses"] == 2
						})
					}
					p1 := passedAfter(t, stdout)
					if p0 < 1 || p1 < p0+2 {
						t.Fatalf("Passed=%d after the small file's warm read and %d after the large file's, want at least 1 and 2 more", p0, p1)
					}
					// A warm batch entry leaves the same way, counted in the
					// same Passed.
					got, err := cli.ReadBatch([]string{file})
					if err != nil || len(got) != 1 || !bytes.Equal(got[0], want) {
						t.Fatalf("batch read of %s: %v", file, err)
					}
					await(t, stdout, "-stats line with BatchEntries=1", func(s string) bool {
						st, _ := lastStats(s)
						return st["BatchEntries"] == 1
					})
					if p2 := passedAfter(t, stdout); p2 != p1+1 {
						t.Fatalf("Passed=%d after a one-entry warm batch, want %d", p2, p1+1)
					}
				}
			}},
		// Keep with room for f0 and not f2 beside it: f0 is kept, and
		// each read of f2 is refused a fill instead of evicting f0.
		{"serve keep below the dataset", []string{"-listen", "127.0.0.1:0", "-pfs", pfs, "-cache", cache,
			"-evict", "keep", "-capacity", strconv.Itoa(len(want) + len(wantSmall) - 1), "-stats", "10ms"}, 0,
			func(t *testing.T, addr string, stdout *syncBuffer) {
				cli, err := hvac.NewClient(hvac.ClientConfig{Servers: []string{addr}, DatasetDir: pfs})
				if err != nil {
					t.Fatal(err)
				}
				defer cli.Close()
				for i, wantHits := range []int64{0, 1} {
					if got, err := cli.ReadAll(file); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("read %d of %s: %d bytes, %v", i+1, file, len(got), err)
					}
					await(t, stdout, "-stats line with the fill done", func(s string) bool {
						st, _ := lastStats(s)
						return st["Hits"] == wantHits && st["Misses"] == 1
					})
				}
				for i := int64(1); i <= 2; i++ {
					if got, err := cli.ReadAll(small); err != nil || !bytes.Equal(got, wantSmall) {
						t.Fatalf("read %d of %s: %d bytes, %v", i, small, len(got), err)
					}
					await(t, stdout, "-stats line with Evictions=0 CachedFiles=1 and the refusal counted", func(s string) bool {
						st, n := lastStats(s)
						return n > 0 && st["Evictions"] == 0 && st["CachedFiles"] == 1 && st["NotAdmitted"] == i
					})
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckBalance(t, "pooled responses outstanding", transport.OutstandingResponses)
			testutil.CheckFDs(t)
			testutil.CheckLeaks(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var stdout, stderr syncBuffer
			done := make(chan int, 1)
			go func() { done <- run(ctx, tc.args, &stdout, &stderr) }()

			if tc.serve != nil {
				var addr string
				await(t, &stdout, `"serving … on ADDR" line`, func(s string) bool {
					if m := servingRe.FindStringSubmatch(s); m != nil {
						addr = m[1]
					}
					return addr != ""
				})
				tc.serve(t, addr, &stdout)
				cancel()
			}
			select {
			case code := <-done:
				if code != tc.code {
					t.Fatalf("exit code %d, want %d; stdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("run did not return within 5 s; stdout:\n%s", &stdout)
			}
			if _, n := lastStats(stdout.String()); tc.serve != nil && n == 0 {
				t.Errorf("no -stats line on stdout:\n%s", &stdout)
			}
		})
	}
}
