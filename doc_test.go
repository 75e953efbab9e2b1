package hvac_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A heading DESIGN.md can be cited by: "## 4. Wire", "### 4.3 File
	// payloads", "## A. Knob ledger", "### A.1 ...".
	headingRE = regexp.MustCompile(`(?m)^###? ([0-9A-Z]+(?:\.[0-9]+)?)\.? `)
	// A citation: the file name, then one or more § ids separated by
	// commas, slashes, dashes or "and", also across a Go comment's line
	// break. The section ids are the § tokens of the match.
	citationRE = regexp.MustCompile("DESIGN\\.md`?(?:\\s|//)*(§[0-9A-Z]+(?:\\.[0-9]+)?(?:(?:\\s|//)*(?:,|/|–|and)(?:\\s|//)*§[0-9A-Z]+(?:\\.[0-9]+)?)*)")
	// A section id. In DESIGN.md's own text a paper section (§III-C,
	// §IV-A1) is told apart by the hyphen after it.
	sectionRE = regexp.MustCompile(`§([0-9A-Z]+(?:\.[0-9]+)?)(-?)`)
	// A code reference in DESIGN.md: `core/server.go` or
	// `core/server.go:Server.resolve` — a path suffix of one module file and
	// optionally a top-level declaration in it, a method as Type.Method.
	codeRefRE = regexp.MustCompile("`([\\w./-]+\\.go)(?::(\\w+(?:\\.\\w+)?))?`")
)

// TestDocReferences keeps DESIGN.md and what cites it in step: every
// section of DESIGN.md cited in the module's Go sources, README.md,
// ROADMAP.md, EXPERIMENTS.md, the Makefile, scripts/*.sh and the .claude
// skills, or by DESIGN.md itself, is a heading that exists; every
// backticked Go file DESIGN.md names is exactly one file of the module,
// and a symbol after it (as in core/server.go:Server.resolve) a top-level
// declaration in that file. CHANGES.md is history and is not checked.
//
// A citation is checked for existence only, not for meaning: the
// Makefile once cited §7 for the chaos tier after §7 had become
// Placement, and since §7 exists this test passed on it. It catches a
// citation of a heading that was removed or renumbered away.
func TestDocReferences(t *testing.T) {
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	design := read("DESIGN.md")
	sections := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}

	var goFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	skills, err := filepath.Glob(".claude/skills/*/*.md")
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := filepath.Glob("scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	cited := []string{"README.md", "ROADMAP.md", "EXPERIMENTS.md", "Makefile"}
	cited = append(append(append(cited, skills...), scripts...), goFiles...)
	found := 0
	for _, path := range cited {
		for _, m := range citationRE.FindAllStringSubmatch(read(path), -1) {
			for _, s := range sectionRE.FindAllStringSubmatch(m[1], -1) {
				found++
				if !sections[s[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which has no such heading", path, s[1])
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no DESIGN.md § citation found anywhere: the scan is broken")
	}
	for _, m := range sectionRE.FindAllStringSubmatch(design, -1) {
		if m[2] == "" && !sections[m[1]] {
			t.Errorf("DESIGN.md refers to its own §%s, which has no such heading", m[1])
		}
	}

	refs := codeRefRE.FindAllStringSubmatch(design, -1)
	if len(refs) == 0 {
		t.Fatal("DESIGN.md has no `file.go` reference: the scan is broken")
	}
	decls := map[string]map[string]bool{} // file -> its top-level names
	for _, m := range refs {
		ref, sym := m[1], m[2]
		var match []string
		for _, f := range goFiles {
			if f == ref || strings.HasSuffix(f, "/"+ref) {
				match = append(match, f)
			}
		}
		if len(match) != 1 {
			t.Errorf("DESIGN.md: `%s` matches %d files of the module %v, want exactly one", ref, len(match), match)
			continue
		}
		if sym == "" {
			continue
		}
		file := match[0]
		if decls[file] == nil {
			decls[file] = topLevelNames(t, file)
		}
		if !decls[file][sym] {
			t.Errorf("DESIGN.md: `%s:%s` — %s declares no %s", ref, sym, file, sym)
		}
	}
}

// topLevelNames returns the names a Go file declares at top level: its
// types, functions, variables and constants, and its methods as
// Type.Method.
func topLevelNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || len(d.Recv.List) == 0 {
				names[d.Name.Name] = true
				continue
			}
			names[recvType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return names
}

// recvType names a method receiver's type: T for T, *T, T[P] and *T[P, Q].
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
