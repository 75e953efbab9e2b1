package core

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestKnobLedger keeps the configuration surface judged: every exported
// field of ServerConfig and ClientConfig and every hvacd/hvacc/hvacctl flag has a
// row in DESIGN.md §14, every row names a knob that still exists, and
// every verdict is "keep" (with its reason) or "open" (naming what will
// judge it). A new field or flag fails here until it has faced the rule
// the ledger states.
func TestKnobLedger(t *testing.T) {
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	want := map[string]bool{}
	for name, typ := range map[string]reflect.Type{
		"ServerConfig": reflect.TypeOf(ServerConfig{}),
		"ClientConfig": reflect.TypeOf(ClientConfig{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				want[name+"."+f.Name] = true
			}
		}
	}
	flagDecl := regexp.MustCompile(`flag\.\w+\("([\w-]+)"`)
	for _, cmd := range []string{"hvacd", "hvacc", "hvacctl"} {
		for _, m := range flagDecl.FindAllStringSubmatch(read("../../cmd/"+cmd+"/main.go"), -1) {
			want[cmd+" -"+m[1]] = true
		}
	}

	design := read("../../DESIGN.md")
	start := strings.Index(design, "\n## 14. Knob ledger")
	if start < 0 {
		t.Fatal("DESIGN.md has no \"## 14. Knob ledger\" section")
	}
	ledger := design[start+1:]
	if end := strings.Index(ledger, "\n## "); end >= 0 {
		ledger = ledger[:end]
	}
	// A row is: | `knob` | who sets it | workload | verdict |
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\|.*\\| ([^|]+) \\|$")
	seen := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(ledger, -1) {
		knob, verdict := m[1], m[2]
		if !want[knob] {
			t.Errorf("DESIGN.md §14 has a row for %q, which is not a field or flag any more", knob)
		}
		if seen[knob] {
			t.Errorf("DESIGN.md §14 has two rows for %q", knob)
		}
		seen[knob] = true
		if !strings.HasPrefix(verdict, "keep") && !strings.HasPrefix(verdict, "open") {
			t.Errorf("DESIGN.md §14: verdict of %q is %q; want \"keep…\" or \"open…\"", knob, verdict)
		}
	}
	for knob := range want {
		if !seen[knob] {
			t.Errorf("%s has no row in DESIGN.md §14: judge it by the ledger's rule, then record the verdict", knob)
		}
	}
}
