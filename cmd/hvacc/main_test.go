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
// two-file dataset and checks what each prints and returns. After every
// command the server must have closed every handle it opened: a queued
// close leaves only with Client.Close, so a command that returns without
// it strands the last handle. Once the server has closed, no goroutine
// and no pooled response may be left over: a command that drops a
// response it was handed fails here.
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
	servers, ds := "-servers="+srv.Addr(), "-dataset="+dataset
	f0Bytes, err := os.ReadFile(f0)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		code int
		want []string // lines of stdout, each a prefix of its line
		same []byte   // if set, stdout must equal it instead
		errs string   // if set, stderr must contain it
	}{
		{"ping", []string{servers, "ping"}, 0, []string{srv.Addr() + " ok"}, nil, ""},
		{"ping a dead server", []string{servers + ",127.0.0.1:1", "ping"}, 1,
			[]string{srv.Addr() + " ok", "127.0.0.1:1 DOWN ("}, nil, ""},
		{"stat", []string{servers, ds, "stat", f0, missing}, 0,
			[]string{f0 + ": 100 bytes", missing + ": ERROR transport: remote error: stat "}, nil, ""},
		{"home", []string{servers, ds, "home", f0}, 0, []string{f0 + " -> server 0 (" + srv.Addr() + ")"}, nil, ""},
		{"prefetch", []string{servers, ds, "prefetch", f0, f1}, 0, []string{"prefetch accepted for 2 of 2 files"}, nil, ""},
		{"read", []string{servers, ds, "-epochs=2", "read", f0, f1}, 0,
			[]string{"epoch 1: 2 files in ", "epoch 2: 2 files in ", "total: 0.0 MiB in "}, nil, "client: Redirected=4 "},
		{"read a missing file", []string{servers, ds, "-workers=1", "read", missing, f0, f1}, 1,
			[]string{"epoch 1: 3 files in ", "total: 0.0 MiB in "}, nil, ""},
		{"read on no workers", []string{servers, ds, "-workers=0", "read", f0}, 2, nil, nil, ""},
		{"batch", []string{servers, ds, "-batch-size=1", "batch", f0, f1}, 0,
			[]string{"epoch 1: 2 files in ", "total: 0.0 MiB in "}, nil, ""},
		{"batch of size zero", []string{servers, ds, "-batch-size=0", "batch", f0}, 2, nil, nil, ""},
		{"cat", []string{servers, ds, "cat", f0}, 0, nil, f0Bytes, ""},
		{"no dataset", []string{servers, "read", f0}, 2, nil, nil, ""},
		{"missing command", []string{servers, ds}, 2, nil, nil, ""},
		{"unknown command", []string{servers, ds, "frob", f0}, 2, nil, nil, ""},
		{"help", []string{"-h"}, 0, nil, nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d; stdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			if st := srv.Stats(); st.Opens != st.Closes {
				t.Errorf("server opened %d handles and closed %d: the command left handles open", st.Opens, st.Closes)
			}
			if !strings.Contains(stderr.String(), tc.errs) {
				t.Errorf("stderr %q does not contain %q", &stderr, tc.errs)
			}
			if tc.same != nil {
				if !bytes.Equal(stdout.Bytes(), tc.same) {
					t.Fatalf("stdout is %d bytes %q, want the file's %d bytes", stdout.Len(), &stdout, len(tc.same))
				}
				return
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
	if n := srv.Stats().CachedFiles; n != 2 {
		t.Fatalf("after prefetch the server caches %d files, want 2", n)
	}
}
