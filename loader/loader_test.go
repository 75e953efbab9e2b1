package loader

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"hvac"
	"hvac/internal/slab"
)

func memSource(t *testing.T, n int) (Source, []string) {
	t.Helper()
	files := map[string][]byte{}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/%04d.rec", i)
		files[paths[i]] = []byte(fmt.Sprintf("content-%d", i))
	}
	return func(p string) ([]byte, error) {
		b, ok := files[p]
		if !ok {
			return nil, fmt.Errorf("missing %s", p)
		}
		return b, nil
	}, paths
}

func TestValidation(t *testing.T) {
	src, paths := memSource(t, 4)
	if _, err := New(nil, Config{Paths: paths}); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := New(src, Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := New(src, Config{Paths: paths, Rank: 2, World: 2}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestEpochVisitsEveryFileOnce(t *testing.T) {
	src, paths := memSource(t, 97)
	l, err := New(src, Config{Paths: paths, BatchSize: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	err = l.Epoch(0, func(b Batch) error {
		for i, p := range b.Paths {
			seen[p]++
			if !bytes.Contains(b.Data[i], []byte("content-")) {
				return fmt.Errorf("bad data for %s", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 97 {
		t.Fatalf("visited %d files, want 97", len(seen))
	}
	for p, c := range seen {
		if c != 1 {
			t.Fatalf("%s visited %d times", p, c)
		}
	}
}

func TestShardingPartitionsDataset(t *testing.T) {
	src, paths := memSource(t, 100)
	var all []string
	for rank := 0; rank < 4; rank++ {
		l, err := New(src, Config{Paths: paths, BatchSize: 8, Seed: 5, Rank: rank, World: 4})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, l.EpochOrder(2)...)
	}
	sort.Strings(all)
	want := append([]string(nil), paths...)
	sort.Strings(want)
	if len(all) != len(want) {
		t.Fatalf("shards cover %d files, want %d", len(all), len(want))
	}
	for i := range all {
		if all[i] != want[i] {
			t.Fatalf("shards are not a partition at %d", i)
		}
	}
}

func TestDeterministicAndEpochVarying(t *testing.T) {
	src, paths := memSource(t, 200)
	l1, _ := New(src, Config{Paths: paths, Seed: 9})
	l2, _ := New(src, Config{Paths: paths, Seed: 9})
	a, b := l1.EpochOrder(0), l2.EpochOrder(0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed+epoch diverged")
		}
	}
	c := l1.EpochOrder(1)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("epochs 0 and 1 share %d/200 positions", same)
	}
}

func TestDropLastAndBatchCount(t *testing.T) {
	src, paths := memSource(t, 25)
	keep, _ := New(src, Config{Paths: paths, BatchSize: 10, Seed: 1})
	drop, _ := New(src, Config{Paths: paths, BatchSize: 10, Seed: 1, DropLast: true})
	if keep.BatchesPerEpoch() != 3 || drop.BatchesPerEpoch() != 2 {
		t.Fatalf("batches = %d/%d, want 3/2", keep.BatchesPerEpoch(), drop.BatchesPerEpoch())
	}
	count := func(l *Loader) (batches, samples int) {
		l.Epoch(0, func(b Batch) error {
			batches++
			samples += len(b.Paths)
			return nil
		})
		return
	}
	if b, s := count(keep); b != 3 || s != 25 {
		t.Fatalf("keep: %d batches, %d samples", b, s)
	}
	if b, s := count(drop); b != 2 || s != 20 {
		t.Fatalf("drop: %d batches, %d samples", b, s)
	}
}

func TestErrorsPropagate(t *testing.T) {
	src, paths := memSource(t, 10)
	failing := func(p string) ([]byte, error) {
		if p == paths[3] {
			return nil, errors.New("injected")
		}
		return src(p)
	}
	l, _ := New(failing, Config{Paths: paths, BatchSize: 10, Workers: 4, Seed: 2})
	if err := l.Epoch(0, func(Batch) error { return nil }); err == nil {
		t.Fatal("fetch error swallowed")
	}
	l2, _ := New(src, Config{Paths: paths, BatchSize: 5, Seed: 2})
	sentinel := errors.New("stop")
	if err := l2.Epoch(0, func(Batch) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("callback error = %v", err)
	}
}

// Property: for any world size, batch size and seed, sharded epochs form
// an exact partition of the dataset.
func TestPartitionProperty(t *testing.T) {
	src, paths := memSource(t, 64)
	f := func(seed uint64, worldRaw, bsRaw uint8) bool {
		world := int(worldRaw%8) + 1
		bs := int(bsRaw%16) + 1
		counts := map[string]int{}
		for rank := 0; rank < world; rank++ {
			l, err := New(src, Config{Paths: paths, BatchSize: bs, Seed: seed, Rank: rank, World: world})
			if err != nil {
				return false
			}
			for _, p := range l.EpochOrder(0) {
				counts[p]++
			}
		}
		if len(counts) != len(paths) {
			return false
		}
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestThroughHVAC drives the loader through a live HVAC deployment: the
// paper's full client stack under the DL access pattern.
func TestThroughHVAC(t *testing.T) {
	work := t.TempDir()
	pfsDir := filepath.Join(work, "pfs")
	os.MkdirAll(pfsDir, 0o755)
	paths := make([]string, 30)
	for i := range paths {
		paths[i] = filepath.Join(pfsDir, fmt.Sprintf("s%03d.rec", i))
		os.WriteFile(paths[i], bytes.Repeat([]byte{byte(i)}, 256), 0o644)
	}
	srv, err := hvac.StartServer(hvac.ServerConfig{
		ListenAddr: "127.0.0.1:0", PFSDir: pfsDir,
		CacheDir: filepath.Join(work, "cache"),
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

	l, err := New(cli.ReadAll, Config{Paths: paths, BatchSize: 7, Workers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		samples := 0
		err := l.Epoch(e, func(b Batch) error {
			for i := range b.Paths {
				if len(b.Data[i]) != 256 {
					return fmt.Errorf("short sample %s", b.Paths[i])
				}
				samples++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if samples != 30 {
			t.Fatalf("epoch %d: %d samples", e, samples)
		}
	}
	if st := cli.Stats(); st.Redirected != 60 {
		t.Fatalf("redirected = %d, want 60", st.Redirected)
	}
}

// TestTornBatchZeroed asserts the fetch-error contract: when any sample
// of a batch fails, the callback never runs and the batch's data slots
// are all zeroed — a torn batch (some samples filled, error returned)
// must not be observable.
func TestTornBatchZeroed(t *testing.T) {
	src, paths := memSource(t, 12)
	failing := func(p string) ([]byte, error) {
		if p == paths[5] {
			return nil, errors.New("injected")
		}
		return src(p)
	}
	l, _ := New(failing, Config{Paths: paths, BatchSize: 12, Workers: 4, Seed: 3})
	data := make([][]byte, 12)
	// Reach into fetch directly: Epoch would discard the batch, and the
	// contract is specifically about the buffer fetch leaves behind.
	err := l.fetch(paths, data)
	if err == nil {
		t.Fatal("fetch error swallowed")
	}
	for i, d := range data {
		if d != nil {
			t.Fatalf("slot %d holds %d bytes after failed fetch; torn batch leaked", i, len(d))
		}
	}
}

// TestSourceMemoryNeverRecycled checks that the loader's recycling takes
// back only what internal/slab handed out. The Source serves half its
// samples from its own map, in class-sized 128 KiB slices the loader
// hands to slab.Put with the rest, and the other half in fresh slab
// buffers, as Client.ReadAll does, whose Gets would reuse any map slice
// the slab wrongly took in. After three epochs every map value must still
// hold the bytes it started with.
func TestSourceMemoryNeverRecycled(t *testing.T) {
	const n, size = 16, 128 << 10
	files := map[string][]byte{} // the Source's own memory: even samples
	want := map[string][]byte{}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/%04d.rec", i)
		want[paths[i]] = bytes.Repeat([]byte{byte(i)}, size)
		if i%2 == 0 {
			files[paths[i]] = bytes.Clone(want[paths[i]])
		}
	}
	src := func(p string) ([]byte, error) {
		if b, ok := files[p]; ok {
			return b, nil
		}
		return slab.Clone(want[p]), nil
	}
	l, err := New(src, Config{Paths: paths, BatchSize: 4, Workers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if err := l.Epoch(e, func(b Batch) error {
			for i, p := range b.Paths {
				if !bytes.Equal(b.Data[i], want[p]) {
					return fmt.Errorf("%s: delivered bytes differ from the source's", p)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	for p, b := range files {
		if !bytes.Equal(b, want[p]) {
			t.Fatalf("%s: the Source's own memory was recycled and overwritten", p)
		}
	}
}

// TestBatchSourceFastPath routes every batch through one scatter-gather
// call and checks the per-file Source is never consulted.
func TestBatchSourceFastPath(t *testing.T) {
	src, paths := memSource(t, 20)
	perFileCalls := 0
	countingSrc := func(p string) ([]byte, error) {
		perFileCalls++
		return src(p)
	}
	batchCalls := 0
	bs := func(batch []string) ([][]byte, error) {
		batchCalls++
		out := make([][]byte, len(batch))
		for i, p := range batch {
			b, err := src(p)
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}
	l, err := New(countingSrc, Config{Paths: paths, BatchSize: 5, Seed: 9, BatchSource: bs})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	if err := l.Epoch(0, func(b Batch) error {
		for i := range b.Paths {
			want, _ := src(b.Paths[i])
			if !bytes.Equal(b.Data[i], want) {
				return fmt.Errorf("%s: wrong bytes", b.Paths[i])
			}
			seen[b.Paths[i]] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(paths) {
		t.Fatalf("saw %d samples, want %d", len(seen), len(paths))
	}
	if batchCalls != 4 {
		t.Fatalf("BatchSource called %d times, want 4 (one per batch)", batchCalls)
	}
	if perFileCalls != 0 {
		t.Fatalf("per-file Source called %d times despite BatchSource", perFileCalls)
	}
}

// TestBatchSourceFallsBackToSource degrades a failing BatchSource to the
// per-file worker pool, transparently to the consumer.
func TestBatchSourceFallsBackToSource(t *testing.T) {
	src, paths := memSource(t, 10)
	bs := func(batch []string) ([][]byte, error) {
		return nil, errors.New("batch RPC failed")
	}
	l, _ := New(src, Config{Paths: paths, BatchSize: 5, Seed: 1, BatchSource: bs})
	samples := 0
	if err := l.Epoch(0, func(b Batch) error {
		for i := range b.Paths {
			want, _ := src(b.Paths[i])
			if !bytes.Equal(b.Data[i], want) {
				return fmt.Errorf("%s: wrong bytes after fallback", b.Paths[i])
			}
			samples++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if samples != 10 {
		t.Fatalf("samples = %d, want 10", samples)
	}
}

// TestThroughHVACBatched is TestThroughHVAC with the batched fast path:
// Client.ReadBatch as the BatchSource, byte-identical samples, and the
// whole warm epoch costing one RPC per (server, batch).
func TestThroughHVACBatched(t *testing.T) {
	work := t.TempDir()
	pfsDir := filepath.Join(work, "pfs")
	os.MkdirAll(pfsDir, 0o755)
	paths := make([]string, 30)
	for i := range paths {
		paths[i] = filepath.Join(pfsDir, fmt.Sprintf("s%03d.rec", i))
		os.WriteFile(paths[i], bytes.Repeat([]byte{byte(i)}, 256), 0o644)
	}
	srv, err := hvac.StartServer(hvac.ServerConfig{
		ListenAddr: "127.0.0.1:0", PFSDir: pfsDir,
		CacheDir: filepath.Join(work, "cache"),
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

	l, err := New(cli.ReadAll, Config{
		Paths: paths, BatchSize: 6, Workers: 4, Seed: 11,
		BatchSource: cli.ReadBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		err := l.Epoch(e, func(b Batch) error {
			for i := range b.Paths {
				var want byte
				fmt.Sscanf(filepath.Base(b.Paths[i]), "s%03d.rec", &want)
				if !bytes.Equal(b.Data[i], bytes.Repeat([]byte{want}, 256)) {
					return fmt.Errorf("wrong bytes for %s", b.Paths[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := cli.Stats()
	if st.BatchReads != 60 {
		t.Fatalf("BatchReads = %d, want 60 (every sample via batch)", st.BatchReads)
	}
	if st.Redirected != 0 {
		t.Fatalf("Redirected = %d, want 0 (no per-file opens)", st.Redirected)
	}
}
