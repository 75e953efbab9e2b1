package core

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCoreImportsNoSimPackage keeps this package the shipped system alone.
// The model of the paper's HVAC that the figures run lives in
// internal/summit on the discrete-event stack; a file of this package
// that imports that stack is a model merged back beside the real server,
// and no other test or lint rule would notice.
func TestCoreImportsNoSimPackage(t *testing.T) {
	simPkgs := map[string]bool{}
	for _, p := range []string{"sim", "simnet", "pfs", "device", "vfs", "localfs", "summit", "train"} {
		simPkgs["hvac/internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if simPkgs[path] {
				t.Errorf("%s imports %s: the simulated model belongs in internal/summit", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test Go file found in the package directory")
	}
}
