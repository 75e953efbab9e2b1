package testutil

import (
	"os"
	"path/filepath"
	"testing"
)

// TestKernelCountsSeeAWrite: one write(2) of a known size shows in the
// write-class counts, and a read(2) of it in the read-class ones.
func TestKernelCountsSeeAWrite(t *testing.T) {
	if _, ok := KernelCounts(); !ok {
		t.Skip("kernel counts unavailable")
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	before, _ := KernelCounts()
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	after, _ := KernelCounts()
	d := after.Sub(before)
	if d.WriteCalls < 1 || d.WriteBytes < int64(len(buf)) {
		t.Errorf("a %d-byte write counted as %d calls, %d bytes", len(buf), d.WriteCalls, d.WriteBytes)
	}
	if d.ReadCalls < 1 || d.ReadBytes < int64(len(buf)) {
		t.Errorf("a %d-byte read counted as %d calls, %d bytes", len(buf), d.ReadCalls, d.ReadBytes)
	}
}
