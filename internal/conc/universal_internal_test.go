package conc

import "testing"

// TestUniversalLine27ReleasesLink pins line 27's RL. A helper applies
// the owner's announced operation, posts its response and clears head's
// record (lines 6-21); only then does the owner's line 6 LL link head,
// which now carries no record. The owner finds its response at line 5
// and leaves the loop still linked, so lines 24-29 must release that
// link: head's context and the owner's announce cell end empty, and the
// memory is the canonical one of the state.
func TestUniversalLine27ReleasesLink(t *testing.T) {
	const helper, owner = 0, 1
	u := NewUniversal(CounterObj{}, 2)
	u.ann[owner].Store(annState{kind: annOp, op: incOp}) // Line 4

	h := u.head.LL(helper)
	st, rsp := u.obj.Apply(h.state, incOp)
	if !u.head.SC(helper, headState{state: st, one: true, rec: rspRec{rsp: rsp, proc: owner}}) {
		t.Fatal("helper's line 14 SC failed with no contention")
	}
	h = u.head.LL(helper)
	if posted, escaped := u.postRecs(helper, &h, nil, false); !posted || escaped {
		t.Fatalf("postRecs = (%v, %v), want (true, false)", posted, escaped)
	}
	if !u.head.SC(helper, headState{state: h.state}) {
		t.Fatal("helper's line 21 SC failed with no contention")
	}

	if got := u.head.LL(owner); got.hasRec(owner) { // Line 6
		t.Fatalf("head still holds the owner's record: %+v", got)
	}
	if a := u.loadAnn(owner); a.kind != annRsp || a.rsp != rsp {
		t.Fatalf("ann[%d] = %+v, want the posted response %d", owner, a, rsp)
	}
	if got := u.finish(owner); got != rsp {
		t.Fatalf("finish returned %d, want %d", got, rsp)
	}
	if _, ctx := u.head.Snapshot(); ctx != 0 {
		t.Errorf("head context = %#x after lines 24-29, want 0 (line 27 releases the line 6 link)", ctx)
	}
	if a, ctx := u.ann[owner].Snapshot(); a != (annState{}) || ctx != 0 {
		t.Errorf("ann[%d] = (%+v, %#x) after lines 24-29, want (⊥, 0)", owner, a, ctx)
	}
	if got, want := u.Snapshot(), CanonicalSnapshot(CounterObj{}, 2, u.State()); got != want {
		t.Errorf("not canonical at quiescence:\n got %s\nwant %s", got, want)
	}
}
