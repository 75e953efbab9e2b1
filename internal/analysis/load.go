package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	// ImportPath is the package's import path (module path + directory).
	ImportPath string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset positions every node of Files.
	Fset *token.FileSet
	// Files are the package's non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's use/def/type maps for Files.
	Info *types.Info
}

// Loader parses and type-checks packages of one Go module using only the
// standard library: module-internal imports are resolved by recursively
// loading their directories; standard-library imports go through the
// compiler "source" importer so no pre-built export data is needed.
type Loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	dirs    map[string]string // import path -> absolute dir
	pkgs    map[string]*Package
	loading map[string]bool
	std     types.Importer
}

// NewLoader scans the module rooted at modRoot (the directory holding
// go.mod) and returns a loader for its packages.
func NewLoader(modRoot string) (*Loader, error) {
	root, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks the standard library from GOROOT
	// sources; with cgo disabled it selects the pure-Go variants, which
	// type-check without a C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &Loader{
		fset:    fset,
		modRoot: root,
		modPath: modPath,
		dirs:    make(map[string]string),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		std:     importer.ForCompiler(fset, "source", nil),
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

// ModulePath returns the module's path (the go.mod "module" line).
func (l *Loader) ModulePath() string { return l.modPath }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// scan walks the module tree recording every directory that holds
// non-test Go files. testdata, hidden and vendor directories are skipped,
// matching the go tool's convention.
func (l *Loader) scan() error {
	return filepath.WalkDir(l.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.modRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(l.modRoot, path)
				if err != nil {
					return err
				}
				ip := l.modPath
				if rel != "." {
					ip = l.modPath + "/" + filepath.ToSlash(rel)
				}
				l.dirs[ip] = path
				break
			}
		}
		return nil
	})
}

// buildTagOK reports whether a file's //go:build constraint (if any) is
// satisfied by the default build context, mirroring the go tool's file
// selection: GOOS, GOARCH, the compiler name and release tags are
// satisfied; every other tag (race, integration, ...) is not. Files
// without a constraint are always included.
func buildTagOK(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true // unparseable: let the type-checker complain
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == runtime.Compiler ||
					slices.Contains(build.Default.ReleaseTags, tag) ||
					slices.Contains(build.Default.BuildTags, tag)
			})
		}
	}
	return true
}

// Packages returns the import paths of every package in the module,
// sorted.
func (l *Loader) Packages() []string {
	out := make([]string, 0, len(l.dirs))
	for ip := range l.dirs {
		out = append(out, ip)
	}
	sort.Strings(out)
	return out
}

// Load type-checks the module package with the given import path.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	dir, ok := l.dirs[importPath]
	if !ok {
		return nil, fmt.Errorf("analysis: no package %q in module %s", importPath, l.modPath)
	}
	return l.LoadDir(dir, importPath)
}

// LoadAll loads every package of the module, sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var out []*Package
	for _, ip := range l.Packages() {
		p, err := l.Load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// LoadDir parses and type-checks the single package in dir under the
// given import path. The import path controls how analyzers scope the
// package; fixture tests use it to stand a testdata directory in for a
// real module package.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !buildTagOK(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := &types.Config{Importer: l}
	tpkg, err := cfg.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// Import implements types.Importer: module-internal paths are loaded from
// source; everything else (the standard library) goes through the source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
