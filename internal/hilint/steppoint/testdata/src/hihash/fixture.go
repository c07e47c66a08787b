// Package hihash is a bug-shaped fixture for the steppoint analyzer:
// the labeled CAS shapes the protocols use stay silent, the unlabeled
// ones are reported, and an exemption must state its reason.
package hihash

import "sync/atomic"

type tableState struct {
	groups []atomic.Uint64
}

type Steppoint int

const (
	SpMarkSet Steppoint = iota
	SpGonePlaced
)

func stepAt(Steppoint) {}

// Labeled direct form: the if body is the success path.
func labeledDirect(st *tableState, old, next uint64) {
	if st.groups[0].CompareAndSwap(old, next) {
		stepAt(SpMarkSet)
	}
}

// Labeled negated form: the fallthrough after the retry branch is the
// success path.
func labeledNegated(st *tableState, old, next uint64) {
	for {
		if !st.groups[0].CompareAndSwap(old, next) {
			continue
		}
		stepAt(SpMarkSet)
		return
	}
}

// Labeled negated form inside a case body (the displace.go shape).
func labeledInCase(st *tableState, mode int, old, next uint64) {
	switch mode {
	case 0:
		if !st.groups[2].CompareAndSwap(old, next) {
			return
		}
		stepAt(SpGonePlaced)
	}
}

// An exempted cancel: restores the pre-protocol word, no new window.
func exemptedCancel(st *tableState, old, next uint64) {
	st.groups[0].CompareAndSwap(next, old) //hilint:allow steppoint (cancel restores the pre-mark word; no new crash window)
}

// An unlabeled CAS is a crash window with no matrix coverage.
func unlabeledCAS(st *tableState, old, next uint64) {
	st.groups[0].CompareAndSwap(old, next) // want `no Steppoint`
}

// Writes through an alias of a group word are caught too.
func unlabeledAlias(st *tableState, v uint64) {
	g := &st.groups[1]
	g.Store(v) // want `no Steppoint`
}

// An exemption that states no reason suppresses nothing.
func exemptionWithoutReason(st *tableState, v uint64) {
	//hilint:allow steppoint
	st.groups[3].Store(v) // want `annotation without a reason`
}

// Atomics that do not touch group words are out of scope.
func otherAtomics(c *atomic.Uint64) {
	c.Add(1)
}
