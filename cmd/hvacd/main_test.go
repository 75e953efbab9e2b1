package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
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

var (
	servingRe = regexp.MustCompile(`hvacd: serving \S+ on (\S+) `)
	statsRe   = regexp.MustCompile(`hvacd: opens=\d+ closes=\d+ hits=(\d+) readthrough=\d+ misses=(\d+) `)
	localRe   = regexp.MustCompile(` passed=(\d+) mapped=\d+ local=(\d+) refused=(\d+)\n`)
	keepRe    = regexp.MustCompile(` evictions=(\d+) cached=(\d+) files/\d+B .* notadmitted=(\d+) `)
)

// await polls out until find returns a match, failing the test after 5 s.
func await(t *testing.T, out *syncBuffer, what string, find func(string) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !find(out.String()); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within 5 s; stdout:\n%s", what, out)
		}
	}
}

// lastStats reports hits and misses from the last -stats line in s.
func lastStats(s string) (hits, misses int, ok bool) {
	m := statsRe.FindAllStringSubmatch(s, -1)
	if len(m) == 0 {
		return 0, 0, false
	}
	last := m[len(m)-1]
	hits, _ = strconv.Atoi(last[1])
	misses, _ = strconv.Atoi(last[2])
	return hits, misses, true
}

// TestDaemon drives hvacd in process: usage errors exit 2 before or just
// after the server starts, and a serving daemon caches what it serves
// (under -evict keep, until full, then refusing fills: notadmitted=),
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
				for i, wantHits := range []int{0, 1} {
					got, err := cli.ReadAll(file)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("read %d: got %d bytes, want the file's %d", i+1, len(got), len(want))
					}
					// The fill writes behind the first read; the second
					// read must find it committed.
					await(t, stdout, "-stats line with the fill done", func(s string) bool {
						hits, misses, ok := lastStats(s)
						return ok && hits == wantHits && misses == 1
					})
				}
				if st := cli.Stats(); st.Redirected != 2 || st.Fallbacks != 0 {
					t.Fatalf("client stats %+v, want 2 redirected opens and no fallback", st)
				}
				if runtime.GOOS == "linux" {
					// A client on the daemon's node reaches it through the
					// local socket, as its own user: nothing is refused, and
					// a warm read of 256 KiB or more takes the cache file's
					// descriptor (passed=).
					for i := 0; i < 2; i++ {
						got, err := cli.ReadAll(big)
						if err != nil || !bytes.Equal(got, wantBig) {
							t.Fatalf("read %d of %s: %d bytes, %v", i+1, big, len(got), err)
						}
						await(t, stdout, "-stats line with the large file's fill done", func(s string) bool {
							_, misses, ok := lastStats(s)
							return ok && misses == 2
						})
					}
					await(t, stdout, "-stats line with passed= > 0, local= > 0 and refused=0", func(s string) bool {
						m := localRe.FindAllStringSubmatch(s, -1)
						return len(m) > 0 && m[len(m)-1][1] != "0" && m[len(m)-1][2] != "0" && m[len(m)-1][3] == "0"
					})
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
				for i, wantHits := range []int{0, 1} {
					if got, err := cli.ReadAll(file); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("read %d of %s: %d bytes, %v", i+1, file, len(got), err)
					}
					await(t, stdout, "-stats line with the fill done", func(s string) bool {
						hits, misses, ok := lastStats(s)
						return ok && hits == wantHits && misses == 1
					})
				}
				for i := 1; i <= 2; i++ {
					if got, err := cli.ReadAll(small); err != nil || !bytes.Equal(got, wantSmall) {
						t.Fatalf("read %d of %s: %d bytes, %v", i, small, len(got), err)
					}
					await(t, stdout, "-stats line with evictions=0 cached=1 and the refusal counted", func(s string) bool {
						m := keepRe.FindAllStringSubmatch(s, -1)
						return len(m) > 0 && m[len(m)-1][1] == "0" && m[len(m)-1][2] == "1" && m[len(m)-1][3] == strconv.Itoa(i)
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
			if _, _, ok := lastStats(stdout.String()); tc.serve != nil && !ok {
				t.Errorf("no hvacd: opens= line on stdout:\n%s", &stdout)
			}
		})
	}
}
