package conc_test

// Allocation guard for Algorithm 5 over the in-place R-LLSC cells: LL, VL
// and RL write the current node's context and allocate nothing, so what an
// update allocates is the fresh node of each SC or Store (which rules out
// ABA) and the object's own state copy. CI runs this file's test in its
// allocation-guard step next to internal/hihash's.

import (
	"testing"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/hilint/escape"
	"hiconc/internal/spec"
)

// maxUpdateAllocs is one insert's or remove's budget with no contention:
// the announce-op node (line 4), the line 14 head node, the BigSetObj
// mask copy and its interface box, the response node (line 20), the
// line 21 head node and the ⊥ node (line 28).
const maxUpdateAllocs = 7

// TestUniversalAllocs pins Algorithm 5's per-operation allocations on a
// universal shard's shape: a BigSetObj of four words, driven by one
// goroutine. Lookups read head and allocate nothing; updates stay within
// maxUpdateAllocs. The surfaces measured here must also be declared on
// the escape gate, so the dynamic and the static check cover one list.
func TestUniversalAllocs(t *testing.T) {
	declared := map[string]bool{}
	for _, fn := range escape.HotFuncs("./internal/conc") {
		declared[fn] = true
	}
	for _, fn := range []string{"Universal.Apply", "Cell.LLWithAbort", "Cell.VL", "Cell.RL", "Cell.Load"} {
		if !declared[fn] {
			t.Errorf("alloc guard measures %s but the escape gate does not declare it (internal/hilint/escape.HotPaths)", fn)
		}
	}

	const n, key = 2, 77
	u := conc.NewUniversal(conc.BigSetObj{Words: 4}, n)
	for k := 1; k <= 64*4; k += 3 {
		u.Apply(0, core.Op{Name: spec.OpInsert, Arg: k})
	}
	for _, c := range []struct {
		name string
		op   core.Op
		max  float64
	}{
		{"lookup", core.Op{Name: spec.OpLookup, Arg: key}, 0},
		{"insert", core.Op{Name: spec.OpInsert, Arg: key}, maxUpdateAllocs},
		{"remove", core.Op{Name: spec.OpRemove, Arg: key}, maxUpdateAllocs},
	} {
		avg := testing.AllocsPerRun(1000, func() { u.Apply(1, c.op) })
		t.Logf("%s: %.1f allocs/op", c.name, avg)
		if avg > c.max {
			t.Errorf("%s allocates %.1f per op, want at most %.0f", c.name, avg, c.max)
		}
	}
	if got, want := u.Snapshot(), conc.CanonicalSnapshot(conc.BigSetObj{Words: 4}, n, u.State()); got != want {
		t.Errorf("not canonical at quiescence:\n got %s\nwant %s", got, want)
	}
}
