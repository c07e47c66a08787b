package hirec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hiconc/internal/spec"
)

func TestPendingOperation(t *testing.T) {
	r := NewRecorder(16)
	tok := r.OpStart(spec.OpInsert, 3)
	_ = tok // response never recorded: a crashed or in-flight operation
	recs, err := Records(r.Snapshot())
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(recs) != 1 || recs[0].Completed {
		t.Fatalf("want one pending record, got %+v", recs)
	}
	if recs[0].Ret != 1 {
		t.Fatalf("pending op must return after everything recorded, Ret=%d", recs[0].Ret)
	}
}

func TestFullLaneDropsAndExtractionRefuses(t *testing.T) {
	r := NewRecorder(1) // one slot per lane
	for i := 0; i < 8; i++ {
		tok := r.OpStart(spec.OpInsert, i+1)
		r.opEnd(tok, 0)
	}
	rec := r.Snapshot()
	if rec.Dropped == 0 {
		t.Fatal("full lane did not count drops")
	}
	if _, err := Records(rec); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("Records accepted a recording with drops: %v", err)
	}
}

func TestExtractionRejectsCorruptRecordings(t *testing.T) {
	inv := Event{Seq: 1, Kind: KInvoke, Lane: 0, Index: 0, Name: spec.OpInsert, Arg: 1}
	ret := Event{Seq: 2, Kind: KReturn, Lane: 0, Index: 0, Name: spec.OpInsert, Arg: 1}
	cases := []struct {
		name string
		rec  Recording
		frag string
	}{
		{"orphan return", Recording{Events: []Event{ret}}, "without an invocation"},
		{"duplicate invocation", Recording{Events: []Event{inv, inv}}, "duplicate invocation"},
		{"duplicate response", Recording{Events: []Event{inv, ret, ret}}, "duplicate response"},
		{"corrupt kind", Recording{Events: []Event{{Seq: 1, Kind: 99}}}, "corrupt event kind"},
	}
	for _, tc := range cases {
		if _, err := Records(tc.rec); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.frag, err)
		}
	}
}

func TestChromeExport(t *testing.T) {
	r := NewRecorder(64)
	tok := r.OpStart(spec.OpInsert, 5)
	r.Step("mark-set")
	r.opEnd(tok, 0)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Snapshot()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
	}
	if phases["B"] != 1 || phases["E"] != 1 || phases["i"] != 1 {
		t.Fatalf("unexpected phase mix %v", phases)
	}
	if doc.TraceEvents[0].Name != "insert(5)" {
		t.Fatalf("B event name %q", doc.TraceEvents[0].Name)
	}
}
