package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hvac"
	"hvac/internal/testutil"
	"hvac/internal/transport"
)

// TestCommands drives every command against an in-process server over a
// two-file dataset and checks what each prints and returns. Once the
// server has closed, no goroutine and no pooled response may be left
// over: a command that drops a response it was handed fails here.
func TestCommands(t *testing.T) {
	testutil.CheckBalance(t, "pooled responses outstanding", transport.OutstandingResponses)
	testutil.CheckLeaks(t)
	dataset := filepath.Join(t.TempDir(), "dataset")
	if err := os.MkdirAll(dataset, 0o755); err != nil {
		t.Fatal(err)
	}
	f0, f1, missing := filepath.Join(dataset, "f0.rec"), filepath.Join(dataset, "f1.rec"), filepath.Join(dataset, "gone.rec")
	for p, n := range map[string]int{f0: 100, f1: 7} {
		if err := os.WriteFile(p, bytes.Repeat([]byte{'x'}, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := hvac.StartServer(hvac.ServerConfig{
		ListenAddr: "127.0.0.1:0",
		PFSDir:     dataset,
		CacheDir:   filepath.Join(t.TempDir(), "nvme"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	servers := "-servers=" + srv.Addr()

	for _, tc := range []struct {
		name string
		args []string
		code int
		want []string // lines of stdout, each a prefix of its line
	}{
		{"ping", []string{servers, "ping"}, 0, []string{srv.Addr() + " ok"}},
		{"ping a dead server", []string{servers + ",127.0.0.1:1", "-retries=1", "ping"}, 1,
			[]string{srv.Addr() + " ok", "127.0.0.1:1 DOWN ("}},
		{"stat", []string{servers, "stat", f0, missing}, 0,
			[]string{f0 + ": 100 bytes", missing + ": ERROR transport: remote error: stat "}},
		{"home", []string{servers, "home", f0}, 0, []string{f0 + " -> server 0 (" + srv.Addr() + ")"}},
		{"prefetch", []string{servers, "prefetch", f0, f1}, 0, []string{"prefetch accepted for 2 of 2 files"}},
		{"unknown command", []string{servers, "frob"}, 2, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d; stdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			var lines []string
			if stdout.Len() > 0 {
				lines = strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
			}
			if len(lines) != len(tc.want) {
				t.Fatalf("stdout has %d lines, want %d:\n%s", len(lines), len(tc.want), &stdout)
			}
			for i, want := range tc.want {
				if got := strings.Join(strings.Fields(lines[i]), " "); !strings.HasPrefix(got, want) {
					t.Errorf("stdout line %d = %q, want it to start with %q", i, lines[i], want)
				}
			}
		})
	}
	srv.WaitIdle()
	if n := srv.CachedFiles(); n != 2 {
		t.Fatalf("after prefetch the server caches %d files, want 2", n)
	}
}
