package faultinject_test

import (
	"testing"

	"hiconc/internal/faultinject"
	"hiconc/internal/hihash"
)

// FuzzCrashSchedule fuzzes the crash matrix itself: an arbitrary
// operation script (one byte per op), an arbitrary steppoint and an
// arbitrary occurrence of it define a crash schedule. The victim runs
// the script and is killed at the planned protocol step; the driver's
// recovery rule then settles every key to the script's final abstract
// state and forces a grow. Whatever the crash exposed, the settled table
// must agree with the script on membership and be byte-for-byte
// canonical — any wedge, stack overflow, resurrection or non-canonical
// residue is a finding.
func FuzzCrashSchedule(f *testing.F) {
	// Seeds: a displacing overflow, a remove-heavy churn, a grow mid
	// script, and a schedule deep enough to crash inside the drain.
	f.Add([]byte{0x01, 0x02, 0x04, 0x05, 0x06}, uint8(hihash.SpDestWritten), uint8(4))
	f.Add([]byte{0x01, 0x02, 0x11, 0x03, 0x12}, uint8(hihash.SpFlagPlaced), uint8(1))
	f.Add([]byte{0x01, 0x02, 0x03, 0x20, 0x04}, uint8(hihash.SpDrainCopied), uint8(2))
	f.Add([]byte{0x05, 0x06, 0x07, 0x20, 0x15, 0x01, 0x20}, uint8(hihash.SpGonePlaced), uint8(1))
	f.Fuzz(func(t *testing.T, script []byte, spByte, occByte uint8) {
		if len(script) > 64 {
			script = script[:64]
		}
		plan := faultinject.Plan{
			Point:      hihash.Steppoint(spByte) % hihash.NumSteppoints,
			Occurrence: int(occByte%16) + 1,
		}
		// Decode: low nibble picks the key, high nibble the verb
		// (0 insert, 1 remove, 2 grow).
		ops := make([]faultinject.Op, len(script))
		for i, b := range script {
			ops[i] = faultinject.Op{Verb: faultinject.Verb(int(b>>4) % 3), Key: int(b&0x0F)%displaceDomain + 1}
		}
		if c := faultinject.CrashCell(newDisplaceSet, faultinject.NewScript(ops...), plan); c.Err != nil {
			t.Fatalf("script %x: %v", script, c.Err)
		}
	})
}
