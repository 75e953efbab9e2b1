package hvac_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hvac"
	"hvac/internal/vfs"
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

// TestPublicAPISimulation drives the facade's simulation surface.
func TestPublicAPISimulation(t *testing.T) {
	eng := hvac.NewSimEngine()
	ns := hvac.NewNamespace()
	for i := 0; i < 16; i++ {
		ns.Add(fmt.Sprintf("/gpfs/d/%03d", i), 64<<10)
	}
	cluster := hvac.NewSimulatedCluster(eng, 4, ns)
	job := cluster.StartHVAC(hvac.SimHVACOptions{InstancesPerNode: 2, Placement: hvac.RendezvousPlacement()})
	client := job.Client(0)
	reads := 0
	eng.Spawn("reader", func(p *hvac.SimProc) {
		for i := 0; i < 16; i++ {
			if _, err := vfs.ReadFile(p, client, fmt.Sprintf("/gpfs/d/%03d", i)); err != nil {
				t.Errorf("sim read: %v", err)
				return
			}
			reads++
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if reads != 16 {
		t.Fatalf("reads = %d", reads)
	}
	if job.TotalStats().Misses != 16 {
		t.Fatalf("misses = %d", job.TotalStats().Misses)
	}
}

func TestExperimentRegistryViaFacade(t *testing.T) {
	if len(hvac.Experiments()) < 12 {
		t.Fatalf("registry too small: %d", len(hvac.Experiments()))
	}
	e, ok := hvac.ExperimentByID("tab1")
	if !ok {
		t.Fatal("tab1 missing")
	}
	tables := e.Run(hvac.ExperimentOptions{})
	if len(tables) != 1 {
		t.Fatal("tab1 produced no table")
	}
}
