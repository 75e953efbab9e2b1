package core

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"hvac/internal/transport"
)

// TestKnobLedger keeps the configuration surface judged: every exported
// field of ServerConfig, ClientConfig and the transport's ClientOptions
// and ServerOptions, and every hvacd/hvacc flag, has a row in DESIGN.md
// §A, every row names a knob that still exists, and every verdict is
// "keep" (with its reason) or "open" (naming what will judge it). A new
// field or flag fails here until it has faced the rule the ledger states.
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
		"ServerConfig":            reflect.TypeOf(ServerConfig{}),
		"ClientConfig":            reflect.TypeOf(ClientConfig{}),
		"transport.ClientOptions": reflect.TypeOf(transport.ClientOptions{}),
		"transport.ServerOptions": reflect.TypeOf(transport.ServerOptions{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				want[name+"."+f.Name] = true
			}
		}
	}
	// A flag is declared on the flag package or on a command's FlagSet, fs.
	flagDecl := regexp.MustCompile(`\b(?:flag|fs)\.(\w+)\("([\w-]+)"`)
	for _, cmd := range []string{"hvacd", "hvacc"} {
		for _, m := range flagDecl.FindAllStringSubmatch(read("../../cmd/"+cmd+"/main.go"), -1) {
			if m[1] != "NewFlagSet" {
				want[cmd+" -"+m[2]] = true
			}
		}
	}

	design := read("../../DESIGN.md")
	start := strings.Index(design, "\n## A. Knob ledger")
	if start < 0 {
		t.Fatal("DESIGN.md has no \"## A. Knob ledger\" section")
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
			t.Errorf("DESIGN.md §A has a row for %q, which is not a field or flag any more", knob)
		}
		if seen[knob] {
			t.Errorf("DESIGN.md §A has two rows for %q", knob)
		}
		seen[knob] = true
		if !strings.HasPrefix(verdict, "keep") && !strings.HasPrefix(verdict, "open") {
			t.Errorf("DESIGN.md §A: verdict of %q is %q; want \"keep…\" or \"open…\"", knob, verdict)
		}
	}
	for knob := range want {
		if !seen[knob] {
			t.Errorf("%s has no row in DESIGN.md §A: judge it by the ledger's rule, then record the verdict", knob)
		}
	}
}
