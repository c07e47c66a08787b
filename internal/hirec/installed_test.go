package hirec_test

import (
	"sync"
	"testing"

	"hiconc/internal/hirec"
	"hiconc/internal/histats"
	"hiconc/internal/spec"
)

// The flight recorder installed in histats' observer slot, driven
// through the sites the instrumented packages call.

// drain guards against a previous test leaving a recorder installed.
func drain(t *testing.T) {
	t.Helper()
	histats.Record(nil)
	t.Cleanup(func() { histats.Record(nil) })
}

func TestDisabledNoops(t *testing.T) {
	drain(t)
	if histats.Recording() != nil {
		t.Fatal("recorder installed at test start")
	}
	tok := histats.Invoke(histats.Op{Ctr: histats.CtrHashInsert, Name: spec.OpInsert}, 7)
	if tok != (hirec.Token{}) {
		t.Fatal("disabled Invoke returned a live token")
	}
	hirec.OpEnd(tok, 0) // must not panic
	histats.Step(histats.CtrMarkSet)
}

func TestRecordAndExtract(t *testing.T) {
	drain(t)
	r := hirec.NewRecorder(1 << 10)
	histats.Record(r)
	const workers, opsPer = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				tok := histats.Invoke(histats.Op{Ctr: histats.CtrHashInsert, Name: spec.OpInsert}, w*opsPer+i+1)
				histats.Step(histats.CtrBoundedUpdate)
				hirec.OpEnd(tok, 0)
			}
		}(w)
	}
	wg.Wait()
	if histats.Record(nil) != r {
		t.Fatal("uninstalling returned a different recorder")
	}
	rec := r.Snapshot()
	if rec.Dropped != 0 {
		t.Fatalf("dropped %d events with ample capacity", rec.Dropped)
	}
	wantEvents := workers * opsPer * 3 // invoke + step + return
	if len(rec.Events) != wantEvents {
		t.Fatalf("got %d events, want %d", len(rec.Events), wantEvents)
	}
	for i := 1; i < len(rec.Events); i++ {
		if rec.Events[i].Seq <= rec.Events[i-1].Seq {
			t.Fatalf("events not in strict Seq order at %d", i)
		}
	}
	recs, err := hirec.Records(rec)
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(recs) != workers*opsPer {
		t.Fatalf("got %d op records, want %d", len(recs), workers*opsPer)
	}
	for _, op := range recs {
		if !op.Completed {
			t.Fatalf("op %v not completed after a drained run", op.Op)
		}
		if op.Inv >= op.Ret {
			t.Fatalf("op %v has Inv %d >= Ret %d", op.Op, op.Inv, op.Ret)
		}
	}
}

func TestTokenPinsRecorderAcrossDisable(t *testing.T) {
	drain(t)
	histats.Record(hirec.NewRecorder(16))
	tok := histats.Invoke(histats.Op{Ctr: histats.CtrShardOp, Name: spec.OpInc}, 1)
	old := histats.Record(hirec.NewRecorder(16)) // a different recorder takes over
	hirec.OpEnd(tok, 42)                         // must land on old, not the new one
	fresh := histats.Record(nil)
	if n := len(fresh.Snapshot().Events); n != 0 {
		t.Fatalf("new recorder captured %d events from an old token", n)
	}
	recs, err := hirec.Records(old.Snapshot())
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(recs) != 1 || !recs[0].Completed || recs[0].Resp != 42 {
		t.Fatalf("old recorder should hold the completed op, got %+v", recs)
	}
}
