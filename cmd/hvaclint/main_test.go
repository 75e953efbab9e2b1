package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hvac/internal/analysis"
)

// TestSuiteHasFourAnalyzers pins the suite size: adding or removing
// an analyzer must be a conscious change here, in -list, and in the
// docs (DESIGN.md §B's census).
func TestSuiteHasFourAnalyzers(t *testing.T) {
	if got := len(analysis.Analyzers()); got != 4 {
		t.Fatalf("suite has %d analyzers, want 4", got)
	}
}

// TestRulesSubsetsNameNewAnalyzers exercises the -rules resolution
// path for each rule alone and for subsets of the suite.
func TestRulesSubsetsNameNewAnalyzers(t *testing.T) {
	for _, names := range [][]string{
		{"errdrop"},
		{"locksafe"},
		{"errdrop", "locksafe"},
		{"simdeterminism", "pfsbypass", "locksafe", "errdrop"},
	} {
		got, err := analysis.ByName(names)
		if err != nil {
			t.Fatalf("ByName(%v): %v", names, err)
		}
		if len(got) != len(names) {
			t.Fatalf("ByName(%v) resolved %d analyzers", names, len(got))
		}
	}
	// A deleted rule is an unknown one: -rules naming it is a usage error
	// (main exits 2), not a run of nothing.
	for _, gone := range []string{"blockgard", "atomicmix", "chanlife", "statpair", "ownerpass", "blockguard", "untrustedlen", "lockorder", "goroleak"} {
		if _, err := analysis.ByName([]string{gone}); err == nil {
			t.Fatalf("ByName accepted the unknown rule name %q", gone)
		}
	}
}

// TestJSONStatsRoundTrip runs the driver with -format json -stats
// wired to separate buffers: stdout must round-trip through
// json.Unmarshal (stats never leak into it) and stats must land on
// stderr.
func TestJSONStatsRoundTrip(t *testing.T) {
	analyzers, err := analysis.ByName([]string{"locksafe", "errdrop"})
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	findings, err := run([]string{"../../internal/transport"}, analyzers, "json", true, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if findings != 0 {
		t.Fatalf("transport package has %d findings; the module must stay lint-clean", findings)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &parsed); err != nil {
		t.Fatalf("stdout does not round-trip through json.Unmarshal: %v\nstdout:\n%s", err, stdout.String())
	}
	for _, want := range []string{"hvaclint: analyzer findings:", "locksafe", "errdrop"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr stats missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestSarifIsUnknownFormat: the formats are text and json. -format sarif
// had no caller and is gone, so asking for it is a usage error (main
// exits 2) before any package is loaded.
func TestSarifIsUnknownFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	_, err := run([]string{"../../internal/place"}, analysis.Analyzers(), "sarif", false, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown -format") {
		t.Fatalf("run with -format sarif: err = %v, want an unknown-format error", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("an unknown format wrote to stdout:\n%s", stdout.String())
	}
}

// TestTextFindingsExitCount runs a subset over a package and checks
// the zero-findings contract of the text path.
func TestTextFindingsExitCount(t *testing.T) {
	analyzers, err := analysis.ByName([]string{"locksafe"})
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	findings, err := run([]string{"../../internal/core"}, analyzers, "text", false, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if findings != 0 {
		t.Fatalf("locksafe reports %d findings on internal/core:\n%s", findings, stdout.String())
	}
	if strings.Contains(stdout.String(), "finding(s)") {
		t.Errorf("clean run printed a findings summary:\n%s", stdout.String())
	}
}
