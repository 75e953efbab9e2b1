package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts // want "..." expectations from fixture sources.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// loadFixture loads testdata/src/<dir> under its fixturePkgs import path
// with a fresh loader.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", dir), fixturePkgs[dir])
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// fixtureTest loads testdata/src/<dir>, runs exactly one analyzer (plus
// the driver's suppression layer), and compares the diagnostics against
// the fixtures' // want "regexp" comments: every want must be matched by
// a diagnostic on its line, and every diagnostic must be covered by a
// want.
func fixtureTest(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	fixDir := filepath.Join("testdata", "src", dir)
	diags := Run(loadFixture(t, dir), []*Analyzer{a})

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	ents, err := os.ReadDir(fixDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(fixDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, m[1], err)
				}
				key := fmt.Sprintf("%s:%d", e.Name(), i+1)
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		covered := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				covered = true
			}
		}
		if !covered {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", key, d.Rule, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing diagnostic at %s: want match for %q", key, w.re)
			}
		}
	}
}
