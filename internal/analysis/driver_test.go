package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadSource writes src as a single-file package in a temp dir and loads
// it under importPath.
func loadSource(t *testing.T, importPath, filename, src string) []Diagnostic {
	t.Helper()
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filename), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	return Run(pkg, Analyzers())
}

func TestLoaderEnumeratesModule(t *testing.T) {
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := l.Packages()
	for _, want := range []string{"hvac", "hvac/internal/core", "hvac/internal/sim", "hvac/cmd/hvaclint"} {
		found := false
		for _, p := range pkgs {
			if p == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Packages() is missing %s (got %d packages)", want, len(pkgs))
		}
	}
}

func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	// One RunPackages call over the whole module, exactly as cmd/hvaclint
	// runs the suite.
	for _, d := range RunPackages(pkgs, Analyzers()) {
		if !d.Suppressed {
			t.Errorf("%s", d)
		}
	}
}

// TestSuppressionScopedPerRule pins down that //hvaclint:ignore silences
// exactly its named rule: a co-located finding of another analyzer on the
// same line must survive.
func TestSuppressionScopedPerRule(t *testing.T) {
	// Both sources put two rules on one line; each case suppresses one.
	const simSrc = `package sim

import (
	"io"
	"time"
)

func stamp(sink io.Writer) {
	%s
	sink.Write([]byte(time.Now().String()))
}
`
	// The core source puts a lock with no unlock and a dropped write
	// error on one line.
	const coreSrc = `package core

import (
	"io"
	"sync"
)

func pump(mu *sync.Mutex, sink io.Writer) {
	%s
	mu.Lock(); sink.Write(nil)
}
`
	cases := []struct {
		name     string
		src      string
		suppress string
		want     []string // surviving rules, sorted
	}{
		{"none-sim", simSrc, "_ = 0", []string{"errdrop", "simdeterminism"}},
		{"sim-suppressed", simSrc, "//hvaclint:ignore simdeterminism test wants the co-located errdrop to survive", []string{"errdrop"}},
		{"errdrop-suppressed", simSrc, "//hvaclint:ignore errdrop test wants the co-located simdeterminism to survive", []string{"simdeterminism"}},
		{"none-core", coreSrc, "_ = 0", []string{"errdrop", "locksafe"}},
		{"locksafe-suppressed", coreSrc, "//hvaclint:ignore locksafe test wants the co-located errdrop to survive", []string{"errdrop"}},
		{"core-errdrop-suppressed", coreSrc, "//hvaclint:ignore errdrop test wants the co-located locksafe to survive", []string{"locksafe"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			importPath, filename := "hvac/internal/sim", "simscoped.go"
			if strings.HasPrefix(tc.src, "package core") {
				importPath, filename = "hvac/internal/core", "pump.go"
			}
			src := strings.Replace(tc.src, "%s", tc.suppress, 1)
			diags := loadSource(t, importPath, filename, src)
			var rules []string
			for _, d := range diags {
				rules = append(rules, d.Rule)
			}
			sort.Strings(rules)
			if strings.Join(rules, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("want surviving rules %v, got %v", tc.want, diags)
			}
		})
	}
}

// TestSuiteDeterministic runs the whole suite twice over every fixture
// package, each time from an independent loader, and requires identical
// diagnostics: analyzer output and CI gating must not depend on map
// iteration order in the loader or the analyzers.
func TestSuiteDeterministic(t *testing.T) {
	run := func(dir string) string {
		var b strings.Builder
		for _, d := range RunPackages([]*Package{loadFixture(t, dir)}, Analyzers()) {
			fmt.Fprintf(&b, "%s suppressed=%v\n", d, d.Suppressed)
		}
		return b.String()
	}
	for dir := range fixturePkgs {
		if a, b := run(dir), run(dir); a != b {
			t.Errorf("%s: diagnostics differ across runs:\n%s\n---\n%s", dir, a, b)
		}
	}
}

func TestSuppressionRequiresMatchingRule(t *testing.T) {
	const src = `package sim

import "time"

func now() int64 {
	//hvaclint:ignore errdrop wrong rule on purpose
	return time.Now().UnixNano()
}
`
	diags := loadSource(t, "hvac/internal/sim", "clock.go", src)
	if len(diags) != 1 || diags[0].Rule != "simdeterminism" {
		t.Fatalf("want 1 simdeterminism diagnostic despite the mismatched suppression, got %v", diags)
	}
}

func TestMalformedSuppressionIsReported(t *testing.T) {
	const src = `package sim

import "time"

func now() int64 {
	//hvaclint:ignore simdeterminism
	return time.Now().UnixNano()
}
`
	diags := loadSource(t, "hvac/internal/sim", "clock.go", src)
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	got := strings.Join(rules, ",")
	// The reasonless suppression both fails to suppress and is itself
	// reported.
	if got != "suppress,simdeterminism" && got != "simdeterminism,suppress" {
		t.Fatalf("want suppress + simdeterminism diagnostics, got %v", diags)
	}
}

func TestPFSBypassCoversLoaderPackage(t *testing.T) {
	const src = `package loader

import "os"

func slurp(p string) ([]byte, error) { return os.ReadFile(p) }
`
	diags := loadSource(t, "hvac/loader", "anyfile.go", src)
	if len(diags) != 1 || diags[0].Rule != "pfsbypass" {
		t.Fatalf("want pfsbypass to cover every hvac/loader file, got %v", diags)
	}
}

// TestEveryAnnotationHasAReader requires every //hvac:<name> comment in the
// module, fixtures included, to name an annotation that a rule of the
// suite reads. An annotation reads as a contract the linter holds the
// code to, so one that outlives its rule is a claim nothing checks: a rule
// that goes takes its annotations with it, and a rule that adds one adds
// it to read here.
func TestEveryAnnotationHasAReader(t *testing.T) {
	const prefix = "//hvac:"
	read := map[string]bool{
		strings.TrimPrefix(fallbackMarker, prefix): true, // pfsbypass
	}
	const root = "../.."
	fset := token.NewFileSet()
	seen := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, prefix)
				if !ok {
					continue
				}
				seen++
				if name, _, _ := strings.Cut(rest, " "); !read[name] {
					t.Errorf("%s: %s%s is read by no rule of the suite", fset.Position(c.Pos()), prefix, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("no annotation found anywhere: the walk missed the module")
	}
}
