package transport

import (
	"bytes"
	"strings"
	"testing"
)

func TestBatchPathsRoundTrip(t *testing.T) {
	paths := []string{"/pfs/a", "/pfs/some/longer/path.bin", "x"}
	blob, err := EncodeBatchPaths(paths)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchPaths(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(paths) {
		t.Fatalf("decoded %d paths, want %d", len(got), len(paths))
	}
	for i := range paths {
		if got[i] != paths[i] {
			t.Fatalf("path %d = %q, want %q", i, got[i], paths[i])
		}
	}
}

func TestEncodeBatchPathsLimits(t *testing.T) {
	if _, err := EncodeBatchPaths(nil); err == nil {
		t.Fatal("empty batch encoded")
	}
	big := make([]string, MaxBatchEntries+1)
	for i := range big {
		big[i] = "p"
	}
	if _, err := EncodeBatchPaths(big); err == nil {
		t.Fatal("oversized batch encoded")
	}
	// Paths that individually fit but jointly overflow the u16 field.
	long := strings.Repeat("x", 60000)
	if _, err := EncodeBatchPaths([]string{long, long}); err == nil {
		t.Fatal("batch overflowing the path field encoded")
	}
}

// TestDecodeBatchPathsCorrupt feeds wire-shaped corruption at the decode
// boundary: every length field must be bounds-checked before use.
func TestDecodeBatchPathsCorrupt(t *testing.T) {
	cases := map[string]string{
		"truncated":       "\x05",
		"zero count":      "\x00\x00",
		"huge count":      "\xff\xff",
		"entry overrun":   "\x01\x00\xff\xff" + "short",
		"missing entry":   "\x02\x00\x01\x00a", // claims 2, carries 1
		"trailing bytes":  "\x01\x00\x01\x00a" + "junk",
		"entry truncated": "\x01\x00\x05",
	}
	for name, blob := range cases {
		if _, err := DecodeBatchPaths(blob); err == nil {
			t.Errorf("%s: corrupt batch decoded without error", name)
		}
	}
}

func TestBatchResultsRoundTrip(t *testing.T) {
	var data []byte
	payload := bytes.Repeat([]byte{7}, 100)
	data = AppendBatchEntry(data, StatusOK, payload)
	data = AppendBatchEntry(data, StatusError, []byte("no such file"))
	data = AppendBatchEntry(data, StatusAgain, nil)

	results, err := (&Response{Data: data}).BatchResults(3)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].OK() || !bytes.Equal(results[0].Data, payload) {
		t.Fatal("entry 0 corrupted")
	}
	if results[1].Status != StatusError || results[1].Err != "no such file" {
		t.Fatalf("entry 1 = %+v", results[1])
	}
	if results[2].Status != StatusAgain || results[2].Data != nil {
		t.Fatalf("entry 2 = %+v", results[2])
	}
}

func TestBatchResultsCorrupt(t *testing.T) {
	good := AppendBatchEntry(nil, StatusOK, []byte("abc"))
	cases := map[string][]byte{
		"truncated header": good[:3],
		"length overrun":   {StatusOK, 0xff, 0xff, 0xff, 0x7f},
		"unknown status":   AppendBatchEntry(nil, 99, nil),
		"trailing bytes":   append(append([]byte{}, good...), 0xde, 0xad),
	}
	for name, data := range cases {
		if _, err := (&Response{Data: data}).BatchResults(1); err == nil {
			t.Errorf("%s: corrupt results decoded without error", name)
		}
	}
	if _, err := (&Response{Data: good}).BatchResults(2); err == nil {
		t.Error("short result list decoded without error")
	}
	if _, err := (&Response{Data: good}).BatchResults(0); err == nil {
		t.Error("zero want accepted")
	}
}
