// Package analysis is hvaclint: a project-specific static-analysis
// framework for the HVAC code base, built only on the standard library's
// go/ast, go/parser and go/types.
//
// HVAC's correctness rests on invariants the Go compiler cannot check:
// the simulation kernel promises bit-for-bit reproducible runs, the
// client must never silently bypass the cache and hit the PFS outside
// its designated fallback sites, and the real-mode server and transport
// are heavily concurrent. Each Analyzer here pins one of those
// invariants down mechanically; cmd/hvaclint runs them all over the
// module and fails the build on findings.
//
// Findings can be suppressed per line with a reasoned comment:
//
//	//hvaclint:ignore <rule> <reason>
//
// placed either at the end of the offending line or alone on the line
// above it. A suppression without a reason is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hvac/internal/analysis/callgraph"
)

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Pos locates the finding (file, line, column).
	Pos token.Position
	// Rule is the reporting analyzer's name.
	Rule string
	// Message describes the violation.
	Message string
	// Suppressed marks a finding covered by a reasoned
	// //hvaclint:ignore comment. Suppressed findings do not gate the
	// build but survive into -format json output for auditing.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// An Analyzer checks one invariant over one package (Run) or over the
// whole analyzed package set at once (RunModule). Exactly one of the two
// hooks is set: interprocedural analyzers use RunModule, which sees every
// package plus the shared call graph.
type Analyzer struct {
	// Name is the rule name used in output and suppression comments.
	Name string
	// Doc is a one-line description of the protected invariant.
	Doc string
	// Run inspects the pass's package and reports findings via
	// Pass.Report.
	Run func(*Pass)
	// RunModule, if set, runs once over every analyzed package with the
	// shared call graph — the hook for interprocedural analyzers.
	RunModule func(*ModulePass)
}

// A ModulePass carries the whole analyzed package set through one
// interprocedural analyzer.
type ModulePass struct {
	// Pkgs are the analyzed packages, sorted by import path.
	Pkgs []*Package
	// Graph is the CHA call graph over Pkgs.
	Graph *callgraph.Graph
	// Fset positions every node of every package.
	Fset *token.FileSet

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// FindPackage resolves an import path to its type-checked package,
// searching the analyzed set first and the import graph second, so
// interprocedural analyzers can anchor on types (e.g. transport.Request)
// even when analyzing a subset of the module.
func (p *ModulePass) FindPackage(path string) *types.Package {
	for _, pkg := range p.Pkgs {
		if pkg.ImportPath == path {
			return pkg.Types
		}
	}
	seen := map[*types.Package]bool{}
	var find func(t *types.Package) *types.Package
	find = func(t *types.Package) *types.Package {
		if t == nil || seen[t] {
			return nil
		}
		seen[t] = true
		if t.Path() == path {
			return t
		}
		for _, imp := range t.Imports() {
			if found := find(imp); found != nil {
				return found
			}
		}
		return nil
	}
	for _, pkg := range p.Pkgs {
		if found := find(pkg.Types); found != nil {
			return found
		}
	}
	return nil
}

// A Pass carries one package through one analyzer.
type Pass struct {
	*Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Filename returns the base name of the file containing pos.
func (p *Pass) Filename(pos token.Pos) string {
	return filepath.Base(p.Fset.Position(pos).Filename)
}

// Analyzers returns the full hvaclint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		PFSBypass,
		LockSafe,
		ErrDrop,
		LockOrder,
		GoroLeak,
		UntrustedLen,
		OwnerPass,
		BlockGuard,
	}
}

// ByName resolves a set of rule names to their analyzers, preserving
// suite order. Unknown names are an error listing the valid rules.
func ByName(names []string) ([]*Analyzer, error) {
	suite := Analyzers()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	var out []*Analyzer
	for _, a := range suite {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		valid := make([]string, len(suite))
		for i, a := range suite {
			valid[i] = a.Name
		}
		return nil, fmt.Errorf("unknown rule(s) %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return out, nil
}

// Timing is one analyzer's wall-clock cost over a run.
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// Run applies the analyzers to one package, resolves suppression
// comments, and returns the surviving (unsuppressed) diagnostics sorted
// by position. Interprocedural analyzers see a one-package module.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	all := RunPackages([]*Package{pkg}, analyzers)
	out := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// RunPackages applies the analyzers to the whole package set:
// per-package analyzers run over each package, interprocedural ones run
// once over the set with a shared call graph. Findings covered by a
// reasoned //hvaclint:ignore comment are marked Suppressed rather than
// dropped; the result is sorted by position.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunPackagesTimed(pkgs, analyzers)
	return diags
}

// RunPackagesTimed is RunPackages plus a per-analyzer wall-clock
// breakdown in suite order; the first interprocedural analyzer's entry
// includes the shared call-graph construction.
func RunPackagesTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	var diags []Diagnostic
	var graph *callgraph.Graph
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		switch {
		case a.RunModule != nil:
			if graph == nil {
				graph = BuildGraph(pkgs)
			}
			a.RunModule(&ModulePass{
				Pkgs: pkgs, Graph: graph, Fset: pkgs[0].Fset,
				analyzer: a, diags: &diags,
			})
		case a.Run != nil:
			for _, pkg := range pkgs {
				a.Run(&Pass{Package: pkg, analyzer: a, diags: &diags})
			}
		}
		timings = append(timings, Timing{Name: a.Name, Elapsed: time.Since(start)})
	}
	diags = applySuppressions(pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags, timings
}

// BuildGraph constructs the shared CHA call graph over the package set.
func BuildGraph(pkgs []*Package) *callgraph.Graph {
	cg := make([]*callgraph.Package, len(pkgs))
	for i, pkg := range pkgs {
		cg[i] = &callgraph.Package{
			Path:  pkg.ImportPath,
			Files: pkg.Files,
			Info:  pkg.Info,
			Types: pkg.Types,
		}
	}
	return callgraph.Build(pkgs[0].Fset, cg)
}

// suppression is one parsed //hvaclint:ignore comment.
type suppression struct {
	rule   string
	reason string
	pos    token.Position
}

const ignorePrefix = "//hvaclint:ignore"

// parseSuppressions collects the //hvaclint:ignore comments of a file,
// keyed by the line they apply to: their own line, which covers a
// trailing comment, plus the following line for a standalone comment.
func parseSuppressions(pkg *Package, f *ast.File) (map[string][]suppression, []Diagnostic) {
	byKey := make(map[string][]suppression)
	var malformed []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			rule, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if rule == "" || reason == "" {
				malformed = append(malformed, Diagnostic{
					Pos:     pos,
					Rule:    "suppress",
					Message: "malformed suppression: want //hvaclint:ignore <rule> <reason>",
				})
				continue
			}
			s := suppression{rule: rule, reason: reason, pos: pos}
			for _, line := range []int{pos.Line, pos.Line + 1} {
				key := fmt.Sprintf("%s:%d", pos.Filename, line)
				byKey[key] = append(byKey[key], s)
			}
		}
	}
	return byKey, malformed
}

// applySuppressions marks diagnostics covered by a reasoned
// //hvaclint:ignore comment as Suppressed — a suppression silences
// exactly its named rule on its line, never a co-located finding of
// another rule — and appends diagnostics for malformed comments.
func applySuppressions(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	byKey := make(map[string][]suppression)
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			m, malformed := parseSuppressions(pkg, f)
			for k, v := range m {
				byKey[k] = append(byKey[k], v...)
			}
			out = append(out, malformed...)
		}
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		for _, s := range byKey[key] {
			if s.rule == d.Rule {
				d.Suppressed = true
				break
			}
		}
		out = append(out, d)
	}
	return out
}
