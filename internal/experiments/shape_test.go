package experiments

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// results_scaled.txt is the committed output of `hvacbench -experiment all
// -seed 42`, and `make figures` fails when a fresh run differs from it by
// a byte. So a claim about the file is a claim about the code: the shape
// test below asserts each claim EXPERIMENTS.md makes in prose, with the
// tolerance the prose states, and the replay test regenerates the
// experiments that finish in seconds and compares them byte for byte.
const resultsFile = "../../results_scaled.txt"

// table is one metrics.Table as rendered in the results file.
type table struct {
	title  string
	header []string
	rows   [][]string
}

// loadResults parses the results file into each experiment's raw section
// text and its tables, keyed by experiment id.
func loadResults(t *testing.T) (sections map[string]string, tables map[string][]table) {
	t.Helper()
	raw, err := os.ReadFile(resultsFile)
	if err != nil {
		t.Fatal(err)
	}
	sections = map[string]string{}
	tables = map[string][]table{}
	var id string
	var lines []string
	flush := func() {
		if id != "" {
			sections[id] = strings.Join(lines, "")
		}
	}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "=== ") {
			flush()
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "=== "), ":")
			lines = nil
		}
		lines = append(lines, line)
	}
	flush()
	for id, text := range sections {
		tables[id] = parseTables(t, text)
	}
	return sections, tables
}

// parseTables cuts a section into tables: a "## title" line, a header, a
// dash line whose runs give the column extents, then rows up to a blank
// line.
func parseTables(t *testing.T, text string) []table {
	t.Helper()
	lines := strings.Split(text, "\n")
	var out []table
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "## ") || i+2 >= len(lines) {
			continue
		}
		var cols [][2]int
		dashes := lines[i+2]
		for j := 0; j < len(dashes); {
			if dashes[j] != '-' {
				j++
				continue
			}
			k := j
			for k < len(dashes) && dashes[k] == '-' {
				k++
			}
			cols = append(cols, [2]int{j, k})
			j = k
		}
		cut := func(line string) []string {
			cells := make([]string, len(cols))
			for c, ext := range cols {
				lo, hi := min(ext[0], len(line)), min(ext[1], len(line))
				cells[c] = strings.TrimSpace(line[lo:hi])
			}
			return cells
		}
		tb := table{title: strings.TrimPrefix(lines[i], "## "), header: cut(lines[i+1])}
		for i += 3; i < len(lines) && lines[i] != ""; i++ {
			tb.rows = append(tb.rows, cut(lines[i]))
		}
		out = append(out, tb)
	}
	if len(out) == 0 {
		t.Fatalf("no tables in section:\n%s", text)
	}
	return out
}

func (tb table) col(t *testing.T, name string) int {
	t.Helper()
	for i, h := range tb.header {
		if h == name {
			return i
		}
	}
	t.Fatalf("%s: no column %q in %q", tb.title, name, tb.header)
	return 0
}

func (tb table) row(t *testing.T, label string) []string {
	t.Helper()
	for _, r := range tb.rows {
		if r[0] == label {
			return r
		}
	}
	t.Fatalf("%s: no row %q", tb.title, label)
	return nil
}

// cell returns the cell in row label, column name, as text.
func (tb table) cell(t *testing.T, label, name string) string {
	t.Helper()
	return tb.row(t, label)[tb.col(t, name)]
}

// num returns the cell in row label, column name, as a number.
func (tb table) num(t *testing.T, label, name string) float64 {
	t.Helper()
	return parseNum(t, tb.cell(t, label, name))
}

// column returns column name top to bottom.
func (tb table) column(t *testing.T, name string) []float64 {
	t.Helper()
	c := tb.col(t, name)
	out := make([]float64, len(tb.rows))
	for i, r := range tb.rows {
		out[i] = parseNum(t, r[c])
	}
	return out
}

func parseNum(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", s)
	}
	return v
}

// nonDecreasing reports whether xs never falls.
func nonDecreasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// increasing reports whether xs strictly rises.
func increasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// argmax returns the index of the largest element.
func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func ratios(num, den []float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		out[i] = num[i] / den[i]
	}
	return out
}

func reverse(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// hvacVariants are Fig. 8's HVAC columns in instance order.
var hvacVariants = []string{"hvac(1x1)", "hvac(2x1)", "hvac(4x1)"}

// TestResultsShape asserts, per gated experiment, the shape EXPERIMENTS.md
// claims for it. Every bound here is the one the prose states.
func TestResultsShape(t *testing.T) {
	_, tables := loadResults(t)
	get := func(t *testing.T, id string, i int) table {
		t.Helper()
		tbs, ok := tables[id]
		if !ok || i >= len(tbs) {
			t.Fatalf("%s: table %d missing from %s", id, i, resultsFile)
		}
		return tbs[i]
	}
	for _, e := range All() {
		if _, ok := tables[e.ID]; !ok {
			t.Errorf("%s has no section in %s", e.ID, resultsFile)
		}
	}
	for id := range tables {
		if _, ok := ByID(id); !ok {
			t.Errorf("%s has a section for %s, which is not an experiment", resultsFile, id)
		}
	}

	t.Run("tab1", func(t *testing.T) {
		tb := get(t, "tab1", 0)
		for attr, want := range map[string]string{
			"CPU":                  "2 x IBM POWER9 22Cores 3.07GHz",
			"GPU":                  "6 x NVIDIA Tesla Volta (V100)",
			"Memory Capacity":      "512 GB DDR4",
			"Node-local Storage":   "1.6 TB NVMe SSD with XFS",
			"Network Interconnect": "Dual-rail Mellanox EDR InfiniBand (25 GB/s)",
		} {
			if got := tb.cell(t, attr, "value"); got != want {
				t.Errorf("%s = %q, want %q (Table I)", attr, got, want)
			}
		}
	})

	t.Run("bandwidth", func(t *testing.T) {
		tb := get(t, "bandwidth", 0)
		for _, g := range tb.column(t, "gpfs TB/s") {
			if g != 2.5 {
				t.Errorf("GPFS aggregate %v TB/s, want 2.5", g)
			}
		}
		if nvme, ratio := tb.num(t, "4096", "nvme TB/s"), tb.num(t, "4096", "ratio"); nvme != 22.5 || ratio != 9 {
			t.Errorf("at 4,096 nodes NVMe %v TB/s (ratio %v), want 22.5 (9x)", nvme, ratio)
		}
	})

	// Figs. 3-4: GPFS peaks at an interior node count and degrades past
	// it; XFS's ratio to GPFS never falls as nodes grow.
	mdtestShape := func(t *testing.T, tb table) (ratio []float64) {
		gpfs := tb.column(t, "gpfs tps")
		peak := argmax(gpfs)
		if peak == 0 || peak == len(gpfs)-1 {
			t.Errorf("GPFS txn/s %v peaks at row %d, want an interior row", gpfs, peak)
		}
		if !increasing(gpfs[:peak+1]) {
			t.Errorf("GPFS txn/s %v does not grow up to its peak", gpfs)
		}
		ratio = tb.column(t, "xfs/gpfs")
		if !nonDecreasing(ratio) {
			t.Errorf("XFS/GPFS ratio %v falls as nodes grow", ratio)
		}
		return ratio
	}
	t.Run("fig3", func(t *testing.T) {
		tb := get(t, "fig3", 0)
		ratio := mdtestShape(t, tb)
		if ratio[len(ratio)-1] < 10*ratio[0] {
			t.Errorf("XFS/GPFS ratio %v widens less than tenfold", ratio)
		}
		// XFS-on-NVMe scales linearly: txn/s per node within 2% of the
		// smallest allocation's.
		per := ratios(tb.column(t, "xfs tps"), tb.column(t, "nodes"))
		for _, p := range per {
			if math.Abs(p/per[0]-1) > 0.02 {
				t.Errorf("XFS txn/s per node %v is not constant within 2%%", per)
				break
			}
		}
	})
	t.Run("fig4", func(t *testing.T) {
		ratio := mdtestShape(t, get(t, "fig4", 0))
		if ratio[0] >= 1 || ratio[len(ratio)-1] <= 1 {
			t.Errorf("XFS/GPFS ratio %v: want below 1 at 2 nodes and above 1 at 512", ratio)
		}
		// Large files move the fight to bandwidth: a single-digit gap
		// where Fig. 3's is above 100x.
		fig3 := get(t, "fig3", 0).column(t, "xfs/gpfs")
		if last, last3 := ratio[len(ratio)-1], fig3[len(fig3)-1]; last >= 10 || last3 <= 100 {
			t.Errorf("largest-allocation gap %vx (8 MB) vs %vx (32 KB): want < 10 and > 100", last, last3)
		}
	})

	t.Run("fig8", func(t *testing.T) {
		panels := map[string]table{}
		for i := 0; i < 4; i++ {
			tb := get(t, "fig8", i)
			panels[strings.Fields(strings.TrimPrefix(tb.title, "Fig. 8: "))[0]] = tb
		}
		for _, app := range []string{"resnet50", "tresnet_m", "cosmoflow"} {
			for _, nodes := range []string{"256", "1024"} {
				tb := panels[app]
				g, x := tb.num(t, nodes, "gpfs"), tb.num(t, nodes, "xfs-nvme")
				h1, h2, h4 := tb.num(t, nodes, "hvac(1x1)"), tb.num(t, nodes, "hvac(2x1)"), tb.num(t, nodes, "hvac(4x1)")
				if !(g > h1 && h1 >= h2 && h2 >= h4 && h4 > x) {
					t.Errorf("%s @%s: want gpfs > 1x1 >= 2x1 >= 4x1 > xfs, got %v %v %v %v %v", app, nodes, g, h1, h2, h4, x)
				}
			}
		}
		if r := panels["resnet50"]; r.num(t, "1024", "gpfs") < 2*r.num(t, "1024", "hvac(4x1)") {
			t.Error("ResNet50 @1024: HVAC(4x1) less than 2x faster than GPFS")
		}
		// At 32 nodes the cold first epoch offsets the warm wins: HVAC(1x1)
		// is no faster than GPFS on any application.
		for app, tb := range panels {
			if h, g := tb.num(t, "32", "hvac(1x1)"), tb.num(t, "32", "gpfs"); h < 0.995*g {
				t.Errorf("%s @32: HVAC(1x1) %v beats GPFS %v by more than 0.5%%", app, h, g)
			}
		}
		// DeepCAM is compute-bound at 32 and 256 nodes: all five systems
		// within 10% of each other.
		for _, nodes := range []string{"32", "256"} {
			var lo, hi float64 = math.Inf(1), 0
			for _, sys := range Systems() {
				v := panels["deepcam"].num(t, nodes, sys.Name)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if hi > 1.10*lo {
				t.Errorf("deepcam @%s: systems span %v..%v, want within 10%%", nodes, lo, hi)
			}
		}
	})

	t.Run("fig9", func(t *testing.T) {
		gain, over := get(t, "fig9", 0), get(t, "fig9", 1)
		for _, v := range hvacVariants {
			// Both normalisations grow with node count (mean row excluded).
			g, o := gain.column(t, v), over.column(t, v)
			if !increasing(g[:len(g)-1]) || !increasing(o[:len(o)-1]) {
				t.Errorf("%s: gain %v and overhead %v must both rise with nodes", v, g, o)
			}
			if m := gain.num(t, "mean", v); m < 0.15 || m > 0.30 {
				t.Errorf("%s mean gain over GPFS %v outside [0.15, 0.30]", v, m)
			}
		}
		for _, r := range gain.rows {
			g1, g2, g4 := parseNum(t, r[1]), parseNum(t, r[2]), parseNum(t, r[3])
			if !(g1 <= g2 && g2 <= g4) {
				t.Errorf("gain row %s: want 1x1 <= 2x1 <= 4x1, got %v", r[0], r[1:])
			}
		}
		// The Fig. 9b ladder: strictly ordered at every scale, positive,
		// and at 32 nodes within 10 points of the paper's 25/14/9.
		for _, r := range over.rows {
			o1, o2, o4 := parseNum(t, r[1]), parseNum(t, r[2]), parseNum(t, r[3])
			if !(o1 > o2 && o2 > o4 && o4 > 0) {
				t.Errorf("overhead row %s: want 1x1 > 2x1 > 4x1 > 0, got %v", r[0], r[1:])
			}
		}
		for i, paper := range []float64{0.25, 0.14, 0.09} {
			if o := over.num(t, "32", hvacVariants[i]); math.Abs(o-paper) > 0.10 {
				t.Errorf("%s overhead @32 = %v, more than 10 points from the paper's %v", hvacVariants[i], o, paper)
			}
		}
	})

	t.Run("fig10", func(t *testing.T) {
		for i := 0; i < 2; i++ {
			tb := get(t, "fig10", i)
			gpfs := tb.column(t, "gpfs")
			for _, v := range hvacVariants {
				if r := ratios(gpfs, tb.column(t, v)); !nonDecreasing(r) || r[len(r)-1] <= r[0] {
					t.Errorf("%s: GPFS/%s ratio %v must widen with epochs", tb.title, v, r)
				}
			}
		}
	})

	t.Run("fig11", func(t *testing.T) {
		tb := get(t, "fig11", 0)
		gpfs1, xfsR := tb.num(t, "gpfs", "epoch-1"), tb.num(t, "xfs-nvme", "R_epoch")
		for _, v := range hvacVariants {
			first, best, avg := tb.num(t, v, "epoch-1"), tb.num(t, v, "R_epoch"), tb.num(t, v, "avg_epoch")
			if math.Abs(first/gpfs1-1) > 0.02 {
				t.Errorf("%s epoch-1 %v not within 2%% of GPFS's %v", v, first, gpfs1)
			}
			if math.Abs(best/xfsR-1) > 0.03 {
				t.Errorf("%s R_epoch %v not within 3%% of XFS's %v", v, best, xfsR)
			}
			if gpfs1 < 2.5*best {
				t.Errorf("%s cached epoch %v not 2.5x faster than GPFS's %v", v, best, gpfs1)
			}
			if !(best < avg && avg < first) {
				t.Errorf("%s: average epoch %v not between R_epoch %v and epoch-1 %v", v, avg, best, first)
			}
		}
	})

	t.Run("fig12", func(t *testing.T) {
		tres, cam := get(t, "fig12", 0), get(t, "fig12", 1)
		for _, sys := range Systems() {
			col := tres.column(t, sys.Name)
			lo, hi := col[0], col[0]
			for _, v := range col {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if hi-lo > 0.005 {
				t.Errorf("tresnet_m %s moves %v..%v min across batch sizes, want within 0.005", sys.Name, lo, hi)
			}
		}
		for _, r := range cam.rows {
			lo, hi := math.Inf(1), 0.0
			for _, c := range r[1:] {
				v := parseNum(t, c)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if hi-lo > 0.005 {
				t.Errorf("deepcam BS=%s: systems span %v..%v min, want within 0.005", r[0], lo, hi)
			}
		}
		// Batch size does not change which tier wins: the order of GPFS,
		// HVAC(4x1) and XFS is the same on every row of a panel.
		for _, tb := range []table{tres, cam} {
			order := func(label string) [3]bool {
				g, h, x := tb.num(t, label, "gpfs"), tb.num(t, label, "hvac(4x1)"), tb.num(t, label, "xfs-nvme")
				return [3]bool{g > h, h > x, g > x}
			}
			for _, r := range tb.rows {
				if order(r[0]) != order(tb.rows[0][0]) {
					t.Errorf("%s: tier order at batch %s differs from batch %s", tb.title, r[0], tb.rows[0][0])
				}
			}
		}
	})

	t.Run("fig13", func(t *testing.T) {
		tb := get(t, "fig13", 0)
		if times := tb.column(t, "train time"); !nonDecreasing(reverse(times)) {
			t.Errorf("train time %v rises as the split moves from local to remote", times)
		}
		local, remote := tb.column(t, "local opens"), tb.column(t, "remote opens")
		total := local[0] + remote[0]
		for i, r := range tb.rows {
			if local[i]+remote[i] != total {
				t.Errorf("%s: local+remote opens %v, want %v", r[0], local[i]+remote[i], total)
			}
			want, _ := strconv.Atoi(strings.Split(r[0], "/")[0])
			if got := local[i] / total; math.Abs(got-float64(want)/100) > 0.02 {
				t.Errorf("%s: local fraction %.4f, want within 2 points of %d%%", r[0], got, want)
			}
		}
	})

	t.Run("fig14", func(t *testing.T) {
		curve, milestones := get(t, "fig14", 0), get(t, "fig14", 1)
		for _, r := range curve.rows {
			if curve.num(t, r[0], "delta") != 0 ||
				curve.cell(t, r[0], "gpfs top1") != curve.cell(t, r[0], "hvac top1") ||
				curve.cell(t, r[0], "gpfs top5") != curve.cell(t, r[0], "hvac top5") {
				t.Errorf("iteration %s: GPFS and HVAC accuracy differ: %v", r[0], r)
			}
		}
		for _, r := range milestones.rows {
			if g, h := milestones.num(t, r[0], "gpfs"), milestones.num(t, r[0], "hvac(4x1)"); h > 0.75*g {
				t.Errorf("top1 >= %s: HVAC at %v min, not 25%% earlier than GPFS's %v", r[0], h, g)
			}
		}
	})

	t.Run("fig15", func(t *testing.T) {
		tb := get(t, "fig15", 0)
		if len(tb.rows) != 6 {
			t.Fatalf("fig15 has %d node counts, want 32..1024", len(tb.rows))
		}
		if cv := tb.column(t, "cv"); !increasing(cv) {
			t.Errorf("cv %v does not rise with nodes", cv)
		}
		for _, r := range tb.rows {
			if lo, hi := tb.num(t, r[0], "min/mean"), tb.num(t, r[0], "max/mean"); lo < 0.75 || hi > 1.26 {
				t.Errorf("%s nodes: min/mean %v, max/mean %v outside [0.75, 1.26]", r[0], lo, hi)
			}
		}
	})

	t.Run("ablation-placement", func(t *testing.T) {
		balance, moved := get(t, "ablation-placement", 0), get(t, "ablation-placement", 1)
		for _, c := range balance.header[1:] {
			if d := balance.num(t, "modhash", c) - balance.num(t, "rendezvous", c); math.Abs(d) > 0.01 {
				t.Errorf("%s: modhash and rendezvous cv differ by %v, want within 0.01", c, d)
			}
		}
		if m, r := moved.num(t, "modhash", "moved"), moved.num(t, "rendezvous", "moved"); m < 0.95 || r > 2.0/257 {
			t.Errorf("moved on growth: modhash %v (want > 0.95), rendezvous %v (want <= 2/257)", m, r)
		}
	})

	t.Run("ablation-eviction", func(t *testing.T) {
		tb := get(t, "ablation-eviction", 0)
		hit := func(p string) float64 { return tb.num(t, p, "hit rate") }
		train := func(p string) float64 { return tb.num(t, p, "train time (min)") }
		if !(hit("random") > hit("fifo") && hit("fifo") > hit("lru")) {
			t.Errorf("hit rate: want random > fifo > lru, got %v %v %v", hit("random"), hit("fifo"), hit("lru"))
		}
		if !(train("random") < train("fifo") && train("fifo") < train("lru")) {
			t.Errorf("train time: want random < fifo < lru, got %v %v %v", train("random"), train("fifo"), train("lru"))
		}
	})

	t.Run("ablation-instances", func(t *testing.T) {
		tb := get(t, "ablation-instances", 0)
		if util := tb.column(t, "max mover util"); !increasing(reverse(util)) {
			t.Errorf("mover utilisation %v must fall with every doubling of instances", util)
		}
		// Epoch 1 shortens from 1 to 2 instances and is flat from there.
		e1 := tb.column(t, "epoch-1 (s)")
		if e1[1] >= e1[0] {
			t.Errorf("epoch-1 %v: 2 instances not faster than 1", e1)
		}
		for _, v := range e1[2:] {
			if v != e1[1] {
				t.Errorf("epoch-1 %v: not flat from 2 instances", e1)
			}
		}
	})

	t.Run("ablation-replication", func(t *testing.T) {
		tb := get(t, "ablation-replication", 0)
		stranded := tb.num(t, "1", "GPFS fallbacks")
		if stranded == 0 || tb.num(t, "1", "failovers") != 0 {
			t.Errorf("R=1: want failovers 0 and GPFS fallbacks > 0, got %v", tb.row(t, "1"))
		}
		for _, r := range []string{"2", "3"} {
			if tb.num(t, r, "GPFS fallbacks") != 0 || tb.num(t, r, "failovers") != stranded {
				t.Errorf("R=%s: want every stranded read (%v) failed over and none to GPFS, got %v", r, stranded, tb.row(t, r))
			}
		}
		// Warming pulls R-1 extra copies through the movers, so each
		// replica costs fill-epoch time on this unsaturated GPFS.
		if times := tb.column(t, "train time (min)"); !increasing(times) {
			t.Errorf("train time %v does not rise with R", times)
		}
	})

	t.Run("ablation-prefetch", func(t *testing.T) {
		tb := get(t, "ablation-prefetch", 0)
		const cold, pre = "cold (paper)", "prefetched"
		if tb.num(t, cold, "stage (s)") != 0 || tb.num(t, pre, "stage (s)") <= 0 {
			t.Errorf("stage: want 0 cold and > 0 prefetched, got %v / %v", tb.row(t, cold), tb.row(t, pre))
		}
		if tb.cell(t, pre, "epoch-1 (s)") != tb.cell(t, pre, "warm epoch (s)") {
			t.Errorf("prefetched epoch-1 %s does not run at warm speed %s", tb.cell(t, pre, "epoch-1 (s)"), tb.cell(t, pre, "warm epoch (s)"))
		}
		if p, c := tb.num(t, pre, "train total (min)"), tb.num(t, cold, "train total (min)"); p > 0.8*c {
			t.Errorf("prefetched total %v not 20%% below cold %v", p, c)
		}
	})

	t.Run("ablation-segments", func(t *testing.T) {
		balance, timing := get(t, "ablation-segments", 0), get(t, "ablation-segments", 1)
		const file, seg = "file (paper)", "1MB segments"
		if balance.num(t, seg, "cv") > balance.num(t, file, "cv")/2 || balance.num(t, seg, "max/mean") >= balance.num(t, file, "max/mean") {
			t.Errorf("segments do not halve the byte-load cv and lower max/mean: %v vs %v", balance.row(t, seg), balance.row(t, file))
		}
		if s, f := timing.num(t, seg, "train time (min)"), timing.num(t, file, "train time (min)"); s > 1.25*f {
			t.Errorf("segment training %v min, more than 25%% over file-level %v", s, f)
		}
	})
}

// TestResultsReplay regenerates the experiments that finish in seconds and
// compares each, byte for byte, with its section of the results file, in
// the format cmd/hvacbench prints. The rest is `make figures`' job.
func TestResultsReplay(t *testing.T) {
	sections, _ := loadResults(t)
	for _, id := range []string{"tab1", "fig15", "bandwidth", "ablation-segments"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		var b strings.Builder
		b.WriteString("=== " + e.ID + ": " + e.Title + " ===\n")
		for _, tb := range e.Run(Options{Seed: 42}) {
			b.WriteString(tb.String() + "\n")
		}
		if got := b.String(); got != sections[id] {
			t.Errorf("%s no longer reproduces %s:\n--- committed\n%s--- regenerated\n%s", id, resultsFile, sections[id], got)
		}
	}
}
