package hihash

import "hiconc/internal/histats"

// Steppoints label the shared-memory transitions of the native table's
// protocols — the instants at which a crashing thread can abandon the
// table in an intermediate window. Each label fires immediately AFTER
// the corresponding CAS succeeds, so a fault injector that kills the
// goroutine at a steppoint leaves memory exactly as an adversarial crash
// would: the write is visible, the rest of the protocol never ran.
//
// The displacement protocol (displace.go) exposes the windows of a
// cross-group relocation: the mark planted, the destination written but
// the source not yet cleared, the source released into a restore flag
// but the backward shift not yet run. The resize protocol (resize.go)
// exposes the windows of a migration: the doubled array published, a key
// copied into it but not yet dropped from the old group, the old copy
// dropped, the gone sentinel stamped. The bounded table has a single
// steppoint — its one-CAS updates have no intermediate windows, which is
// exactly why it is perfectly HI.
//
// internal/faultinject builds on these hooks; see EXPERIMENTS.md E23.
// Each steppoint is the histats counter of the same name and value.

// Steppoint identifies one labeled protocol step.
type Steppoint uint8

// The labeled steps, in rough protocol order.
const (
	// SpBoundedUpdate: a bounded-mode insert or remove CAS landed (the
	// whole update — there is no intermediate window to crash in).
	SpBoundedUpdate = Steppoint(histats.CtrBoundedUpdate)
	// SpMarkSet: a relocation mark was planted on a resident key (Robin
	// Hood eviction, stranded-key pull-back, or backward-shift pull-back).
	SpMarkSet = Steppoint(histats.CtrMarkSet)
	// SpDestWritten: a displaced key's new copy landed in its destination
	// group (empty-slot claim or flagged-hole claim), before the
	// post-placement reachability validation ran.
	SpDestWritten = Steppoint(histats.CtrDestWritten)
	// SpEvictSwap: an eviction's stale mark was swapped for the incoming
	// key in one CAS (finishEvict), or an obsolete relocation was
	// cancelled in place.
	SpEvictSwap = Steppoint(histats.CtrEvictSwap)
	// SpSourceCleared: a completed relocation released its stale source
	// slot into a restore flag, before the backward shift ran.
	SpSourceCleared = Steppoint(histats.CtrSourceCleared)
	// SpFlagPlaced: a remove released its key's slot into a restore flag,
	// before the backward shift ran.
	SpFlagPlaced = Steppoint(histats.CtrFlagPlaced)
	// SpFlagCleared: a backward shift cleared a restore flag whose hole no
	// displaced key had crossed.
	SpFlagCleared = Steppoint(histats.CtrFlagCleared)
	// SpGrowPublished: a grow published the doubled group array, before
	// any old group drained.
	SpGrowPublished = Steppoint(histats.CtrGrowPublished)
	// SpDrainCopied: a migration drain placed an old key's copy in the
	// current array, before the old copy was dropped (the key is
	// momentarily in both arrays).
	SpDrainCopied = Steppoint(histats.CtrDrainCopied)
	// SpDrainDropped: a migration drain released an old-group slot (a
	// migrated key's stale copy, or a restore flag the migration
	// supersedes).
	SpDrainDropped = Steppoint(histats.CtrDrainDropped)
	// SpGonePlaced: a fully drained old group was stamped with the gone
	// sentinel.
	SpGonePlaced = Steppoint(histats.CtrGonePlaced)

	// NumSteppoints bounds the enumeration (for iterating crash matrices).
	NumSteppoints = SpGonePlaced + 1
)

// String implements fmt.Stringer.
func (p Steppoint) String() string {
	if p < NumSteppoints {
		return histats.Counter(p).String()
	}
	return "steppoint(?)"
}

// SetStepHook installs fn as the global steppoint observer (nil removes
// it). The hook is called synchronously on the goroutine that performed
// the protocol step, immediately after its CAS succeeded; it may block
// the goroutine (parking it in the window) or kill it via runtime.Goexit
// (crashing it there). Intended for fault-injection tests
// (internal/faultinject); production code leaves it nil. Steps counted
// outside this table (internal/conc) do not reach fn.
func SetStepHook(fn func(Steppoint)) {
	var hook func(histats.Counter)
	if fn != nil {
		hook = func(c histats.Counter) {
			if p := Steppoint(c); p < NumSteppoints {
				fn(p)
			}
		}
	}
	histats.SetStepHook(hook)
}

// stepAt reports a completed protocol step to the observers, inlined.
func stepAt(p Steppoint) { histats.Step(histats.Counter(p)) }
