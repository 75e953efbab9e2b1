package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hvac/internal/transport"
)

// The bulk read plane (DESIGN.md §9.4): reads longer than bulkChunk move
// as a two-deep pipeline of chunk RPCs landing in the caller's buffer.
// These tests pin what the pipeline may never change — the bytes, the
// io.ReaderAt contract at EOF, and the byte accounting — on both kinds
// of server-side handle.

// writePatternPFS is writePFS with position-dependent content: a chunk
// delivered to the wrong offset, twice, or not at all changes the bytes.
func writePatternPFS(t *testing.T, dir string, files, size int) []string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, files)
	for i := range paths {
		content := make([]byte, size)
		for j := range content {
			content[j] = byte(j*31 + j>>9 + i)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("f%04d.bin", i))
		if err := os.WriteFile(paths[i], content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

func TestBulkReadMatchesPFS(t *testing.T) {
	const (
		bigSize   = 3*bulkChunk + 11
		smallSize = bulkChunk + bulkChunk/2 + 3 // EOF falls inside the second chunk
	)
	cases := []struct {
		name     string
		size     int
		off, len int
	}{
		{"chunk-1", bigSize, 0, bulkChunk - 1},
		{"chunk", bigSize, 5, bulkChunk},
		{"chunk+1", bigSize, 0, bulkChunk + 1},
		{"2chunks+7", bigSize, 3, 2*bulkChunk + 7},
		{"whole file", bigSize, 0, bigSize},
		{"eof inside second chunk", smallSize, 0, 2 * bulkChunk},
		{"eof inside last of three", bigSize, bulkChunk / 2, 3 * bulkChunk},
		{"starts past eof", smallSize, smallSize + 10, 2 * bulkChunk},
	}
	for _, mode := range []string{"warm", "cold"} {
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				pfsDir := filepath.Join(t.TempDir(), "dataset")
				path := writePatternPFS(t, pfsDir, 1, tc.size)[0]
				servers, cli := startCluster(t, pfsDir, 1, nil, nil) // CheckLeaks: the pipeline's goroutines are joined
				if mode == "warm" {
					if _, err := cli.ReadAll(path); err != nil {
						t.Fatal(err)
					}
					servers[0].WaitIdle()
				}
				pf, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer pf.Close()
				want := make([]byte, tc.len)
				wantN, wantErr := pf.ReadAt(want, int64(tc.off))

				before := cli.Stats().BytesRead
				f, err := cli.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if !f.Remote() {
					t.Fatal("handle is not served by HVAC")
				}
				got := make([]byte, tc.len)
				n, err := f.ReadAt(got, int64(tc.off))
				if n != wantN || err != wantErr {
					t.Fatalf("ReadAt(len %d, off %d) = (%d, %v), the PFS copy gives (%d, %v)", tc.len, tc.off, n, err, wantN, wantErr)
				}
				if !bytes.Equal(got[:n], want[:n]) {
					t.Fatalf("ReadAt(len %d, off %d) differs from the PFS copy", tc.len, tc.off)
				}
				if read := cli.Stats().BytesRead - before; read != int64(n) {
					t.Fatalf("BytesRead grew by %d for %d bytes delivered", read, n)
				}
				if st := cli.Stats(); st.Degrades != 0 || st.Fallbacks != 0 {
					t.Fatalf("a healthy bulk read left the HVAC path: %+v", st)
				}
			})
		}
	}
}

// Segment-striped files go through the same loop, which first cuts the
// range at the segment's end and the file's: the same identity against
// the PFS copy, with fallback off, and on each server exactly the reads
// those cuts make — a segment below bulkChunk is one read, one above it is
// cut again at bulkChunk.
func TestSegmentedReadAtMatchesPFS(t *testing.T) {
	for _, seg := range []int{bulkChunk / 8, bulkChunk + bulkChunk/2} {
		fileSize := 3*seg + seg/3 // three whole segments and a short tail
		cases := []struct {
			name     string
			size     int
			off, len int
		}{
			{"inside one segment", fileSize, seg + 7, seg / 2},
			{"one whole segment", fileSize, seg, seg},
			{"straddles two", fileSize, seg - 100, 300},
			{"straddles three", fileSize, seg - 5, seg + 10},
			{"ends in the short tail", fileSize, 2*seg + 9, seg + seg/3 - 9},
			{"runs over the short tail", fileSize, 3*seg - 1, seg},
			{"whole file", fileSize, 0, fileSize},
			{"starts at eof", fileSize, fileSize, 100},
			{"starts past eof", fileSize, fileSize + seg, 100},
			{"zero-length file", 0, 0, 100},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("seg%dKiB/%s", seg>>10, tc.name), func(t *testing.T) {
				pfsDir := filepath.Join(t.TempDir(), "dataset")
				path := writePatternPFS(t, pfsDir, 1, tc.size)[0]
				servers, cli := startCluster(t, pfsDir, 2,
					func(c *ServerConfig) { c.SegmentSize = int64(seg) },
					func(c *ClientConfig) { c.SegmentSize = int64(seg); c.disableFallback = true })
				pf, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer pf.Close()
				want := make([]byte, tc.len)
				wantN, wantErr := pf.ReadAt(want, int64(tc.off))
				wantReads := make([]int64, len(servers))
				for pos, end := tc.off, tc.off+wantN; pos < end; {
					wantReads[cli.view.Place(segKey(path, int64(pos/seg)))]++
					pos += min(bulkChunk, end-pos, (pos/seg+1)*seg-pos)
				}

				f, err := cli.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				got := make([]byte, tc.len)
				n, err := f.ReadAt(got, int64(tc.off))
				if n != wantN || err != wantErr {
					t.Fatalf("ReadAt(len %d, off %d) = (%d, %v), the PFS copy gives (%d, %v)", tc.len, tc.off, n, err, wantN, wantErr)
				}
				if !bytes.Equal(got[:n], want[:n]) {
					t.Fatalf("ReadAt(len %d, off %d) differs from the PFS copy", tc.len, tc.off)
				}
				for i, srv := range servers {
					if reads := srv.Stats().Reads; reads != wantReads[i] {
						t.Errorf("server %d answered %d reads, the cuts make %d", i, reads, wantReads[i])
					}
				}
				if st := cli.Stats(); st.BytesRead != int64(n) || st.Degrades != 0 || st.Fallbacks != 0 {
					t.Fatalf("a healthy segmented read of %d bytes left %+v", n, st)
				}
			})
		}
	}
}

// ReadAll is the loader's entry point: the same identity through it, on a
// size that is not a multiple of the chunk.
func TestBulkReadAllMatchesPFS(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePatternPFS(t, pfsDir, 3, 2*bulkChunk+bulkChunk/2)
	_, cli := startCluster(t, pfsDir, 2, nil, nil)
	for epoch := 0; epoch < 2; epoch++ { // cold, then warm
		for _, p := range paths {
			want, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cli.ReadAll(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("epoch %d: ReadAll(%s) differs from the PFS copy", epoch, p)
			}
		}
	}
	if st := cli.Stats(); st.BytesRead != int64(2*len(paths)*(2*bulkChunk+bulkChunk/2)) {
		t.Fatalf("BytesRead = %d after two epochs of %d files", st.BytesRead, len(paths))
	}
}

// Regression: handleRead sized its pooled payload from the wire's Len, so
// a reader with a half-frame buffer on a 4 KiB cold file pinned a 32 MiB
// buffer for the call. The buffer now follows what the handle can still
// deliver; the bytes and the short-read-means-EOF contract do not move.
func TestHandleReadSizesPoolFromHandle(t *testing.T) {
	const size = 4096
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	path := writePatternPFS(t, pfsDir, 1, size)[0]
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	servers, cli := startCluster(t, pfsDir, 1, nil, nil)
	srv := servers[0]

	// A cold open: the handle is attached to the in-flight fill and reads
	// take the pooled path whether or not the fill has landed yet.
	open := srv.handle(&transport.Request{Op: transport.OpOpen, Path: path})
	if !open.OK() {
		t.Fatal(open.Error())
	}
	for _, tc := range []struct {
		off     int64
		wantCap int
	}{
		{0, size},
		{size - 100, 512}, // 100 bytes left: the smallest class
		{size, 512},       // at EOF: an empty payload
		{size + 1<<20, 512},
	} {
		resp := srv.handle(&transport.Request{Op: transport.OpRead, Handle: open.Handle, Off: tc.off, Len: transport.MaxFrame / 2})
		if !resp.OK() {
			t.Fatalf("off %d: %v", tc.off, resp.Error())
		}
		rest := want[min(tc.off, size):]
		if !bytes.Equal(resp.Data, rest) || resp.Size != int64(len(rest)) {
			t.Fatalf("off %d: served %d bytes (Size %d), want the file's last %d", tc.off, len(resp.Data), resp.Size, len(rest))
		}
		if cap(resp.Data) != tc.wantCap {
			t.Fatalf("off %d: a half-frame read of a %d-byte file grabbed a %d-byte buffer, want the %d-byte class",
				tc.off, size, cap(resp.Data), tc.wantCap)
		}
		resp.Release()
	}
	if resp := srv.handle(&transport.Request{Op: transport.OpRead, Handle: open.Handle, Len: transport.MaxFrame/2 + 1}); resp.OK() {
		t.Fatal("a read above half a frame was served: checkRange must still come first")
	}
	if resp := srv.handle(&transport.Request{Op: transport.OpClose, Handle: open.Handle}); !resp.OK() {
		t.Fatal(resp.Error())
	}

	// End to end, same shape: a reader with a 32 MiB buffer gets the
	// file's bytes and io.EOF.
	f, err := cli.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, transport.MaxFrame/2)
	n, err := f.ReadAt(buf, 0)
	if n != size || err != io.EOF || !bytes.Equal(buf[:n], want) {
		t.Fatalf("ReadAt with a half-frame buffer = (%d, %v), want (%d, EOF) and the file's bytes", n, err, size)
	}
}
