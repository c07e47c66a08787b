package faultinject_test

import (
	"bytes"
	"math/rand"
	"testing"

	"hiconc/internal/faultinject"
	"hiconc/internal/hihash"
	"hiconc/internal/hirec"
	"hiconc/internal/histats"
)

// TestInstrumentedDumpsIdentical extends the twin checks to the
// observability layer: with a histats recorder installed, a steppoint
// hook observing every protocol step AND the hirec flight recorder
// capturing events, the tables' raw memory must stay bit-identical to
// fully uninstrumented runs. Metrics, hooks and recordings observe the
// execution — which is history — so any influence on the representation
// would be an HI leak through the instrumentation itself.
func TestInstrumentedDumpsIdentical(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 20
	}
	r := histats.NewRecorder()
	flight := hirec.NewRecorder(1 << 12)
	var hookCalls int
	hook := func(hihash.Steppoint) { hookCalls++ }
	instrument := func(on bool) {
		if on {
			histats.EnableWith(r)
			hirec.EnableWith(flight)
			hihash.SetStepHook(hook)
		} else {
			histats.Disable()
			hirec.Disable()
			hihash.SetStepHook(nil)
		}
	}
	defer instrument(false)

	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		target := faultinject.RandomSet(rng, displaceDomain, 6)

		// Same history, instrumented vs bare: bit-identical words.
		instrument(true)
		a := newDisplaceSet()
		faultinject.BuildHistory(a, target, int64(5000+trial))
		instrument(false)
		bare := newDisplaceSet()
		faultinject.BuildHistory(bare, target, int64(5000+trial))
		wa, wb := a.RawWords(), bare.RawWords()
		if len(wa) != len(wb) {
			t.Fatalf("trial %d: instrumented table has %d words, bare %d", trial, len(wa), len(wb))
		}
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("trial %d: state %v: instrumentation changed word %d: %#x != %#x",
					trial, target, i, wa[i], wb[i])
			}
		}

		// Different histories, both instrumented: the usual twin check
		// still holds with the observers running.
		instrument(true)
		c := newDisplaceSet()
		faultinject.BuildHistory(c, target, int64(6000+trial))
		instrument(false)
		if da, dc := a.RawDump(), c.RawDump(); !bytes.Equal(da, dc) {
			t.Fatalf("trial %d: same state %v, different instrumented dumps:\n a: %x\n c: %x", trial, target, da, dc)
		}
	}
	if hookCalls == 0 {
		t.Fatal("the steppoint hook never fired; the workload exercised no protocol steps")
	}
	if r.Snapshot().Total() == 0 {
		t.Fatal("the recorder counted nothing; the metrics sites never fired")
	}
	if rec := flight.Snapshot(); len(rec.Events)+int(rec.Dropped) == 0 {
		t.Fatal("the flight recorder captured nothing; the step sites never fired")
	}
}
