package hvac_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hvac"
	"hvac/internal/sim"
	"hvac/internal/train"
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

// TestPublicAPIKeepEviction: a server built with KeepEviction and a cache
// smaller than the dataset serves every file's bytes, keeps the files it
// admitted first and refuses the rest without evicting.
func TestPublicAPIKeepEviction(t *testing.T) {
	work := t.TempDir()
	pfsDir := filepath.Join(work, "pfs")
	os.MkdirAll(pfsDir, 0o755)
	var paths []string
	for i := 0; i < 12; i++ {
		p := filepath.Join(pfsDir, fmt.Sprintf("f%02d.bin", i))
		os.WriteFile(p, bytes.Repeat([]byte{byte(i)}, 512), 0o644)
		paths = append(paths, p)
	}
	srv, err := hvac.StartServer(hvac.ServerConfig{
		ListenAddr:    "127.0.0.1:0",
		PFSDir:        pfsDir,
		CacheDir:      filepath.Join(work, "c"),
		CacheCapacity: 6 * 512,
		Policy:        hvac.KeepEviction(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := hvac.NewClient(hvac.ClientConfig{Servers: []string{srv.Addr()}, DatasetDir: pfsDir})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for epoch := 0; epoch < 2; epoch++ {
		for i, p := range paths {
			got, err := cli.ReadAll(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 512)) {
				t.Fatalf("epoch %d file %d: wrong bytes", epoch, i)
			}
		}
		srv.WaitIdle()
	}
	st := srv.Stats()
	if st.Evictions != 0 || st.NotAdmitted == 0 || srv.CachedFiles() != 6 || st.Hits == 0 {
		t.Fatalf("%d evictions, %d not admitted, %d hits, %d cached; want 0, > 0, > 0, 6",
			st.Evictions, st.NotAdmitted, st.Hits, srv.CachedFiles())
	}
}

// TestTrainingThroughHVACIsBitIdentical is Fig. 14's claim with a real
// model: logistic regression trained by SGD over the same per-epoch
// shuffle, once reading its samples straight from the PFS directory and
// once through two live servers, ends with bit-identical per-epoch losses
// and weights. In the second row one server stops halfway through epoch
// 2; its files fall back to the PFS and training does not notice.
func TestTrainingThroughHVACIsBitIdentical(t *testing.T) {
	const features, samples, epochs, lr = 8, 200, 3, 0.1
	pfsDir := filepath.Join(t.TempDir(), "pfs")
	if err := os.MkdirAll(pfsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A sample is 8 little-endian float64 features, then a 0/1 label.
	truth := [features]float64{1.2, -0.7, 0.4, 0.9, -1.1, 0.3, -0.2, 0.6}
	rng := sim.NewRNG(99)
	paths := make([]string, samples)
	for i := range paths {
		buf := make([]byte, features*8+1)
		var dot float64
		for f := range features {
			x := rng.NormFloat64()
			binary.LittleEndian.PutUint64(buf[f*8:], math.Float64bits(x))
			dot += truth[f] * x
		}
		if dot+0.3*rng.NormFloat64() > 0 {
			buf[features*8] = 1
		}
		paths[i] = filepath.Join(pfsDir, fmt.Sprintf("sample-%04d.bin", i))
		if err := os.WriteFile(paths[i], buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// sgd trains over read, calling midway before the middle sample of
	// epoch 2.
	sgd := func(t *testing.T, read func(string) ([]byte, error), midway func()) (w [features]float64, losses []float64) {
		for e := range epochs {
			perm := train.NewPerm(sim.NewRNG(uint64(1000+e)), samples)
			var loss float64
			for i := range samples {
				if e == 1 && i == samples/2 {
					midway()
				}
				raw, err := read(paths[perm.Index(i)])
				if err != nil {
					t.Fatal(err)
				}
				var x [features]float64
				var z float64
				for f := range features {
					x[f] = math.Float64frombits(binary.LittleEndian.Uint64(raw[f*8:]))
					z += w[f] * x[f]
				}
				y, p := float64(raw[features*8]), 1/(1+math.Exp(-z))
				loss += -(y*math.Log(p+1e-12) + (1-y)*math.Log(1-p+1e-12))
				for f := range features {
					w[f] -= lr * (p - y) * x[f]
				}
			}
			losses = append(losses, loss/samples)
		}
		return w, losses
	}
	wantW, wantLosses := sgd(t, os.ReadFile, func() {})

	for _, stop := range []bool{false, true} {
		t.Run(fmt.Sprintf("stop=%v", stop), func(t *testing.T) {
			var servers []*hvac.Server
			var addrs []string
			for i := range 2 {
				srv, err := hvac.StartServer(hvac.ServerConfig{
					ListenAddr: "127.0.0.1:0",
					PFSDir:     pfsDir,
					CacheDir:   filepath.Join(t.TempDir(), fmt.Sprintf("nvme%d", i)),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				servers = append(servers, srv)
				addrs = append(addrs, srv.Addr())
			}
			cli, err := hvac.NewClient(hvac.ClientConfig{Servers: addrs, DatasetDir: pfsDir})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			w, losses := sgd(t, cli.ReadAll, func() {
				if stop {
					servers[1].Close()
				}
			})
			if w != wantW || !slices.Equal(losses, wantLosses) {
				t.Fatalf("through HVAC: weights %v, losses %v; read directly: %v, %v", w, losses, wantW, wantLosses)
			}
			if st := cli.Stats(); st.Redirected == 0 || (st.Fallbacks > 0) != stop {
				t.Fatalf("client stats %+v: want redirected opens, and fallbacks only after a server stopped", st)
			}
		})
	}
}
