package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping count once", []span{{Start: 110, End: 150}, {Start: 130, End: 170}}, 40},
		{"nested child adds nothing", []span{{Start: 110, End: 180}, {Start: 120, End: 130}}, 30},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside the parent", []span{{Start: 0, End: 100}, {Start: 200, End: 300}}, 100},
		{"unsorted", []span{{Start: 160, End: 170}, {Start: 110, End: 120}, {Start: 115, End: 165}}, 40},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayerTimes(t *testing.T) {
	// One batch, two overlapping source calls, each with one RPC.
	spans := []span{
		{ID: 1, Layer: "loader", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "core.client", Start: 10, End: 60},
		{ID: 3, Parent: 1, Layer: "core.client", Start: 40, End: 90},
		{ID: 4, Parent: 2, Layer: "transport", Start: 20, End: 50},
		{ID: 5, Parent: 3, Layer: "transport", Start: 45, End: 85},
	}
	total, self := layerTimes(spans)
	want := map[string][2]int64{"loader": {100, 20}, "core.client": {100, 30}, "transport": {70, 70}}
	for layer, w := range want {
		if total[layer] != w[0] || self[layer] != w[1] {
			t.Errorf("%s: total %d self %d, want %d %d", layer, total[layer], self[layer], w[0], w[1])
		}
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := percentile(xs, 0.50); v != 500 || beyond != 500 {
		t.Errorf("p50 of 1..1000 = %v with %d beyond, want 500 with 500", v, beyond)
	}
	for n, want := range map[int]bool{0: false, 999: false, 1000: true, 1001: true, 1099: true, 5000: true} {
		if got := tailReady(n, 0.99); got != want {
			t.Errorf("tailReady(%d, 0.99) = %v, want %v", n, got, want)
		}
		if _, beyond := percentile(xs[:min(n, len(xs))], 0.99); n <= len(xs) && (beyond >= tailBeyond) != want {
			t.Errorf("percentile leaves %d beyond p99 of %d samples, tailReady says %v", beyond, n, want)
		}
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 || median(nil) != 0 {
		t.Error("median")
	}
}

func TestNormalizeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"--workload x --trace 1":      "--workload x --trace=1",
		"--trace 0 --seed 3":          "--trace=0 --seed 3",
		"-trace -workload warm_small": "-trace -workload warm_small",
		"-seconds 1 -trace":           "-seconds 1 -trace",
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(in)), " "); got != want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSampleStamp(t *testing.T) {
	a, b := make([]byte, 4096), make([]byte, 4096)
	fillSample(a, 7, 3)
	fillSample(b, 7, 3)
	if !slices.Equal(a, b) {
		t.Fatal("content is not a pure function of (seed, index)")
	}
	if !stampOK(a, 3, 4096) {
		t.Fatal("a fresh sample fails its own stamp")
	}
	fillSample(b, 8, 3)
	if slices.Equal(a, b) {
		t.Fatal("the seed does not change the content")
	}
	if stampOK(a, 4, 4096) || stampOK(a[:4000], 3, 4000) || stampOK(a, 3, 8192) {
		t.Fatal("stamp check passes the wrong index or a truncated sample")
	}
	a[len(a)-1] ^= 1
	if stampOK(a, 3, 4096) {
		t.Fatal("stamp check misses a damaged tail")
	}
}

// small shrinks a workload to a smoke-test size that keeps its shape:
// the same read path, the same cache share, batches small enough that a
// sub-second window still leaves ten of them beyond p99.
func small(t *testing.T, name string) workload {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.files, w.batch = 64, min(w.batch, 2)
	w.fileSize = min(w.fileSize, 64<<10)
	return w
}

func testConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, seconds: 0.25, limit: 60, workdir: t.TempDir(), outDir: t.TempDir(), out: io.Discard}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		r, err := runEndToEnd(testConfig(t), small(t, w.name))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.correct || r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, r.correct, r.failed, r.attempted)
		}
		for _, d := range endToEnd {
			if v, ok := r.metrics[d.name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.name, d.name, v)
			}
		}
		var fields map[string]any
		line, err := jsonLine(r)
		if err == nil {
			err = json.Unmarshal([]byte(line), &fields)
		}
		if err != nil || len(fields) != 4 {
			t.Errorf("%s: result line %q: %v", w.name, line, err)
		}
	}
}

func TestTracedCounts(t *testing.T) {
	cfg := testConfig(t)
	results := make(map[string]*result)
	for _, w := range workloads {
		r, err := runTraced(cfg, small(t, w.name))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.correct {
			t.Errorf("%s: incorrect, %d failed", w.name, r.failed)
		}
		for _, d := range perLayer {
			if _, ok := r.metrics[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, d.name)
			}
		}
		// The rows of the layer table and the residual are the wall time.
		m := r.metrics
		sum := m["loader.self_us_per_sample"] + m["core.client.self_us_per_sample"] +
			m["transport.wire_us_per_sample"] + m["core.server.handler_us_per_sample"] + m["trace.residual_us_per_sample"]
		if wall := m["trace.wall_us_per_sample"]; sum < 0.999*wall || sum > 1.001*wall {
			t.Errorf("%s: layer rows sum to %v us, wall is %v us", w.name, sum, wall)
		}
		if fi, err := os.Stat(cfg.outDir + "/trace-" + w.name + ".jsonl"); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file: %v", w.name, err)
		}
		results[w.name] = r
	}
	if got := results["warm_small"].metrics["core.client.rpcs_per_sample"]; got != 3 {
		t.Errorf("warm_small: rpcs_per_sample = %v, want exactly 3 (open, read, close)", got)
	}
	// Two files per batch, one RPC per server that homes any of them.
	if got := results["warm_batch"].metrics["core.client.rpcs_per_sample"]; got < 0.5 || got > 1 {
		t.Errorf("warm_batch: rpcs_per_sample = %v, want within [0.5, 1]", got)
	}
	for _, name := range []string{"warm_small", "warm_batch", "warm_large"} {
		m := results[name].metrics
		if m["pfs.opens_per_sample"] != 0 || m["core.server.hit_frac"] != 1 || m["core.server.fills"] != 0 || m["core.server.evictions"] != 0 {
			t.Errorf("%s: warm epochs touched the PFS: opens/sample=%v hit_frac=%v fills=%v evictions=%v", name,
				m["pfs.opens_per_sample"], m["core.server.hit_frac"], m["core.server.fills"], m["core.server.evictions"])
		}
	}
	if m := results["cold_churn"].metrics; m["core.server.evictions"] == 0 || m["pfs.opens_per_sample"] == 0 || m["core.server.hit_frac"] >= 1 {
		t.Errorf("cold_churn did not churn: evictions=%v opens/sample=%v hit_frac=%v",
			m["core.server.evictions"], m["pfs.opens_per_sample"], m["core.server.hit_frac"])
	}
}

// TestContract keeps BENCHMARK.json and the tables of this package in
// step: the workload and metric names, units, directions and bounds.
func TestContract(t *testing.T) {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var want struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, entry{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		want.EndToEnd = append(want.EndToEnd, entry{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, entry{Name: d.name, Unit: d.unit, Better: d.better})
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	got := want
	got.Workloads, got.EndToEnd, got.PerLayer = nil, nil, nil
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("BENCHMARK.json disagrees with bench/workload.go; its workloads, end_to_end and per_layer should read:\n%s", wantJSON)
	}
}

func TestCalibrator(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if f, err := cal.factor(); err != nil || f <= 0 {
			t.Fatalf("factor = %v, %v; want a positive ratio", f, err)
		}
	}
	cal.close() // returns only once the echo goroutine has exited
}
