package hvac_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hvac"
)

// TestPublicAPIRealMode drives the facade end to end: servers, client
// and eviction constructors.
func TestPublicAPIRealMode(t *testing.T) {
	work := t.TempDir()
	pfsDir := filepath.Join(work, "pfs")
	os.MkdirAll(pfsDir, 0o755)
	var paths []string
	for i := 0; i < 12; i++ {
		p := filepath.Join(pfsDir, fmt.Sprintf("f%02d.bin", i))
		os.WriteFile(p, bytes.Repeat([]byte{byte(i)}, 512), 0o644)
		paths = append(paths, p)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := hvac.StartServer(hvac.ServerConfig{
			ListenAddr: "127.0.0.1:0",
			PFSDir:     pfsDir,
			CacheDir:   filepath.Join(work, fmt.Sprintf("c%d", i)),
			Policy:     hvac.LRUEviction(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	cli, err := hvac.NewClient(hvac.ClientConfig{
		Servers:    addrs,
		DatasetDir: pfsDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i, p := range paths {
		got, err := cli.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 512 || got[0] != byte(i) {
			t.Fatalf("file %d: %d bytes, first=%d", i, len(got), got[0])
		}
	}
	if st := cli.Stats(); st.Redirected != 12 {
		t.Fatalf("redirected = %d", st.Redirected)
	}
}
