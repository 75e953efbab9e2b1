// Command hvaclint runs the HVAC-specific static-analysis suite
// (internal/analysis) over the module and exits non-zero on findings.
//
// Usage:
//
//	hvaclint [-list] [-rules a,b,...] [-format text|json] [-stats] [packages]
//
// With no arguments or the pattern "./...", every package of the module
// is analysed. Other arguments name package directories relative to the
// working directory. -rules restricts the run to a comma-separated
// subset of the suite (names as printed by -list). Findings print as
//
//	file:line:col: [rule] message
//
// or, with -format json, as a JSON array of
//
//	{"rule": ..., "pos": {"file": ..., "line": ..., "col": ...},
//	 "message": ..., "suppressed": ...}
//
// including suppressed findings (suppressed entries never affect the
// exit status; CI uses them for annotations). -stats appends a
// per-analyzer finding count and wall time, so gate failures name the
// rule and a slow suite names the analyzer; it always writes to
// stderr, so -format json stdout stays parseable with -stats on.
// Findings can be suppressed per line with
// //hvaclint:ignore <rule> <reason>.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hvac/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	format := flag.String("format", "text", "output format: text or json")
	stats := flag.Bool("stats", false, "print per-analyzer finding counts and wall time")
	flag.Parse()
	analyzers := analysis.Analyzers()
	if *rules != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*rules, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "hvaclint:", err)
			os.Exit(2)
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	findings, err := run(flag.Args(), analyzers, *format, *stats, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hvaclint:", err)
		os.Exit(2)
	}
	if findings > 0 {
		os.Exit(1)
	}
}

// jsonPos is the position part of the stable -format json schema.
type jsonPos struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// jsonFinding is one diagnostic in the stable -format json schema.
type jsonFinding struct {
	Rule       string  `json:"rule"`
	Pos        jsonPos `json:"pos"`
	Message    string  `json:"message"`
	Suppressed bool    `json:"suppressed"`
}

// run executes the suite and writes findings to stdout (human or
// machine format) and stats to stderr. It returns the number of
// unsuppressed findings; the caller owns the exit code, which keeps
// run testable.
func run(args []string, analyzers []*analysis.Analyzer, format string, stats bool, stdout, stderr io.Writer) (int, error) {
	if format != "text" && format != "json" {
		return 0, fmt.Errorf("unknown -format %q (want text or json)", format)
	}
	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		return 0, err
	}
	paths, err := selectPackages(l, root, args)
	if err != nil {
		return 0, err
	}
	var pkgs []*analysis.Package
	for _, ip := range paths {
		pkg, err := l.Load(ip)
		if err != nil {
			return 0, err
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		return 0, fmt.Errorf("no packages selected")
	}
	diags, timings := analysis.RunPackagesTimed(pkgs, analyzers)
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}

	findings := 0
	perRule := make(map[string]int)
	for _, d := range diags {
		if !d.Suppressed {
			findings++
			perRule[d.Rule]++
		}
	}

	switch format {
	case "json":
		out := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonFinding{
				Rule:       d.Rule,
				Pos:        jsonPos{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column},
				Message:    d.Message,
				Suppressed: d.Suppressed,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return 0, err
		}
	default:
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		}
	}
	// Stats go to stderr unconditionally: stdout stays a clean findings
	// stream (text) or a parseable document (json).
	if stats {
		fmt.Fprintf(stderr, "hvaclint: analyzer findings:\n")
		for _, tm := range timings {
			fmt.Fprintf(stderr, "  %-16s %-6d %8.1fms\n", tm.Name, perRule[tm.Name],
				float64(tm.Elapsed.Microseconds())/1000)
		}
		if perRule["suppress"] > 0 {
			fmt.Fprintf(stderr, "  %-16s %d\n", "suppress", perRule["suppress"])
		}
	}
	if findings > 0 && format == "text" {
		fmt.Fprintf(stdout, "hvaclint: %d finding(s)\n", findings)
	}
	return findings, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// selectPackages maps the command-line patterns onto module import
// paths.
func selectPackages(l *analysis.Loader, root string, args []string) ([]string, error) {
	if len(args) == 0 {
		return l.Packages(), nil
	}
	var out []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			return l.Packages(), nil
		}
		if strings.HasSuffix(arg, "/...") {
			prefix, err := argImportPath(l, root, strings.TrimSuffix(arg, "/..."))
			if err != nil {
				return nil, err
			}
			for _, ip := range l.Packages() {
				if ip == prefix || strings.HasPrefix(ip, prefix+"/") {
					out = append(out, ip)
				}
			}
			continue
		}
		ip, err := argImportPath(l, root, arg)
		if err != nil {
			return nil, err
		}
		out = append(out, ip)
	}
	return out, nil
}

// argImportPath resolves one directory argument to an import path.
func argImportPath(l *analysis.Loader, root, arg string) (string, error) {
	if strings.HasPrefix(arg, l.ModulePath()) {
		return arg, nil
	}
	abs, err := filepath.Abs(arg)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("package %s is outside the module", arg)
	}
	if rel == "." {
		return l.ModulePath(), nil
	}
	return l.ModulePath() + "/" + filepath.ToSlash(rel), nil
}
