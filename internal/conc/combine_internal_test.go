package conc

import (
	"testing"

	"hiconc/internal/core"
	"hiconc/internal/spec"
)

var (
	incOp = core.Op{Name: spec.OpInc}
	decOp = core.Op{Name: spec.OpDec}
)

func ins(v int) core.Op { return core.Op{Name: spec.OpInsert, Arg: v} }
func rem(v int) core.Op { return core.Op{Name: spec.OpRemove, Arg: v} }

// TestGatherBatchRechecksOwnAnnounce: gatherBatch reproduces the line 11
// recheck — with nothing announced it must refuse to build a batch.
func TestGatherBatchRechecksOwnAnnounce(t *testing.T) {
	u := NewCombiningUniversal(CounterObj{}, 4)
	if batch, ok := u.gatherBatch(0, incOp, 0); ok {
		t.Fatalf("batch = %v with no announced operations; want ok = false", batch)
	}
}

// TestGatherBatchContended checks that after a failed SC every announced
// commuting operation is folded in, priority process first.
func TestGatherBatchContended(t *testing.T) {
	u := NewCombiningUniversal(CounterObj{}, 4)
	for j := 0; j < 4; j++ {
		u.ann[j].Store(annState{kind: annOp, op: incOp})
	}
	batch, ok := u.gatherBatch(0, incOp, 2)
	if !ok || len(batch) != 4 {
		t.Fatalf("contended batch = %v, ok = %v; want all 4", batch, ok)
	}
	if batch[0].proc != 2 {
		t.Errorf("batch head = p%d, want priority process p2", batch[0].proc)
	}
	seen := map[int]bool{}
	for _, b := range batch {
		if seen[b.proc] {
			t.Fatalf("process p%d batched twice: %v", b.proc, batch)
		}
		seen[b.proc] = true
	}
}

// TestGatherBatchRespectsCombinable checks that a non-commuting announced
// operation is left out: an insert/remove pair on the same set element must
// not be folded, while operations on distinct elements must be.
func TestGatherBatchRespectsCombinable(t *testing.T) {
	u := NewCombiningUniversal(SetObj{}, 3)
	u.ann[0].Store(annState{kind: annOp, op: ins(1)})
	u.ann[1].Store(annState{kind: annOp, op: rem(1)}) // conflicts with p0
	u.ann[2].Store(annState{kind: annOp, op: ins(2)}) // commutes with p0
	batch, ok := u.gatherBatch(0, ins(1), 0)
	if !ok || len(batch) != 2 {
		t.Fatalf("batch = %v, ok = %v; want p0+p2", batch, ok)
	}
	if batch[0].proc != 0 || batch[1].proc != 2 {
		t.Errorf("batch = %v, want [p0 p2]", batch)
	}
}

// TestBatchRecordAppliesInOrder installs a batch by hand and checks that the
// responses recorded by the SC are the sequential responses in batch order,
// and that a helper posts every record before clearing head.
func TestBatchRecordAppliesInOrder(t *testing.T) {
	u := NewCombiningUniversal(CounterObj{}, 3)
	// All three processes announce an inc; p0 fails one SC to arm combining.
	for j := 0; j < 3; j++ {
		u.ann[j].Store(annState{kind: annOp, op: incOp})
	}
	batch, ok := u.gatherBatch(0, incOp, 0)
	if !ok || len(batch) != 3 {
		t.Fatalf("batch = %v", batch)
	}
	h := u.head.LL(0)
	st := h.state
	recs := make([]rspRec, len(batch))
	for k, b := range batch {
		var rsp int
		st, rsp = u.obj.Apply(st, b.op)
		recs[k] = rspRec{rsp: rsp, proc: b.proc}
	}
	if !u.head.SC(0, withRecs(st, recs)) {
		t.Fatal("SC failed with no contention")
	}
	for k, rec := range recs {
		if rec.rsp != k {
			t.Errorf("rec %d rsp = %d, want %d (sequential order)", k, rec.rsp, k)
		}
	}
	// A helper in mode B must post all three responses, then clear head.
	hv := u.head.LL(1)
	posted, escaped := u.postRecs(1, &hv, nil, false)
	if !posted || escaped {
		t.Fatalf("postRecs = (%v, %v), want (true, false)", posted, escaped)
	}
	if !u.head.SC(1, headState{state: hv.state}) {
		t.Fatal("clearing SC failed")
	}
	for j := 0; j < 3; j++ {
		a := u.loadAnn(j)
		if a.kind != annRsp || a.rsp != j {
			t.Errorf("ann[%d] = %+v, want response %d", j, a, j)
		}
	}
	if got := u.head.Load(); got.numRecs() != 0 || got.state.(int) != 3 {
		t.Errorf("head after clear = %+v, want <3,_>", got)
	}
}
