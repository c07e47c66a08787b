package escape_test

import (
	"strings"
	"testing"

	"hiconc/internal/hilint/escape"
)

// TestRepoHotPathsClean is the gate itself: every declared hot-path
// function in the repo compiles with zero allocation-shaped escapes.
// A failure here prints the compiler's own escape diagnostics.
func TestRepoHotPathsClean(t *testing.T) {
	findings, err := escape.Audit("../../..")
	if err != nil {
		t.Fatalf("escape audit: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestBrokenFixtureCaught runs the gate over the deliberately-broken
// module (a self-referential slice field, the PR 9 regression shape)
// and demands a moved-to-heap finding inside the declared function —
// proving the gate fails when it should, not only passes when it may.
func TestBrokenFixtureCaught(t *testing.T) {
	findings, err := escape.AuditPackage("testdata/broken", escape.Hot{
		Pkg:   ".",
		Funcs: []string{"lookupRecord", "cleanLookup"},
	})
	if err != nil {
		t.Fatalf("escape audit of broken fixture: %v", err)
	}
	var hit bool
	for _, f := range findings {
		if f.Func == "cleanLookup" {
			t.Errorf("clean function flagged: %s", f)
		}
		if f.Func == "lookupRecord" && strings.Contains(f.Detail, "moved to heap") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("gate missed the self-referential-slice escape in lookupRecord; findings: %v", findings)
	}
}

// TestDriftDetected pins the drift half of the contract: declaring a
// function the package no longer defines is a finding, so renames
// cannot silently shrink the audited surface.
func TestDriftDetected(t *testing.T) {
	findings, err := escape.AuditPackage("testdata/broken", escape.Hot{
		Pkg:   ".",
		Funcs: []string{"vanished"},
	})
	if err != nil {
		t.Fatalf("escape audit of broken fixture: %v", err)
	}
	var hit bool
	for _, f := range findings {
		if f.Func == "vanished" && f.Pos == "" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("gate missed the vanished declared function; findings: %v", findings)
	}
}

// TestGenericReceiversNamed pins the naming of methods on generic types:
// (b *box[T]) grow is "box.grow" and (p *pair[K, V]) key is "pair.key",
// so declaring them is no drift finding, and an escape inside grow is
// attributed to it.
func TestGenericReceiversNamed(t *testing.T) {
	findings, err := escape.AuditPackage("testdata/broken", escape.Hot{
		Pkg:   ".",
		Funcs: []string{"box.get", "box.grow", "pair.key"},
	})
	if err != nil {
		t.Fatalf("escape audit of broken fixture: %v", err)
	}
	var hit bool
	for _, f := range findings {
		switch {
		case f.Pos == "":
			t.Errorf("declared generic method reported missing: %s", f)
		case f.Func == "box.grow" && strings.Contains(f.Detail, "escapes to heap"):
			hit = true
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if !hit {
		t.Fatalf("gate missed the escape in box.grow; findings: %v", findings)
	}
}

// TestHotFuncsAccessor pins the accessor the alloc guard ties into.
func TestHotFuncsAccessor(t *testing.T) {
	funcs := escape.HotFuncs("./internal/hihash")
	if len(funcs) == 0 {
		t.Fatal("HotFuncs(./internal/hihash) is empty")
	}
	want := map[string]bool{"Set.Contains": false, "fastScan": false}
	for _, fn := range funcs {
		if _, ok := want[fn]; ok {
			want[fn] = true
		}
	}
	for fn, seen := range want {
		if !seen {
			t.Errorf("HotFuncs missing %s", fn)
		}
	}
	if len(escape.HotFuncs("./internal/conc")) == 0 {
		t.Error("HotFuncs(./internal/conc) is empty")
	}
	if escape.HotFuncs("./no/such/pkg") != nil {
		t.Error("HotFuncs of an undeclared package should be nil")
	}
}
