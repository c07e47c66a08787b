// Package hookfix is a bug-shaped fixture for the hookpoint analyzer:
// the accepted load and install shapes stay silent, the rotted ones —
// re-load in a loop, a TOCTOU load pair, an unchecked use, a raw write
// past Install/Uninstall — are reported.
package hookfix

import "hiconc/internal/hook"

type recorder struct{}

func (recorder) observe(int) {}

var active hook.Point[recorder]

// Canonical form: one load, nil-checked, used inside the check.
func goodCanonical(ev int) {
	if r := active.Load(); r != nil {
		r.observe(ev)
	}
}

// Split form: load into a local, nil-check in a following statement.
func goodSplit(ev int) {
	r := active.Load()
	if r != nil {
		r.observe(ev)
	}
}

// Accessor form: returning the load leaves the check to the caller.
func goodAccessor() *recorder {
	return active.Load()
}

// The nil comparison itself is the use.
func goodEnabled() bool {
	return active.Load() != nil
}

// A function literal is its own event site: a load inside it is not
// "inside the loop" that merely encloses the literal.
func goodFuncLit(n int) {
	for i := 0; i < n; i++ {
		emit := func(ev int) {
			if r := active.Load(); r != nil {
				r.observe(ev)
			}
		}
		emit(i)
	}
}

// Re-loading per iteration of one event's work: the disabled path pays
// an atomic load per spin instead of one per event.
func badLoop(ev int) {
	for tries := 0; tries < 3; tries++ {
		if r := active.Load(); r != nil { // want `re-loaded inside a loop`
			r.observe(ev)
		}
	}
}

// A TOCTOU pair: the observer can be uninstalled between the loads.
func badDouble(ev int) {
	if active.Load() != nil {
		active.Load().observe(ev) // want `second Load`
	}
}

// Using the loaded observer without any nil check.
func badNoCheck(ev int) {
	r := active.Load() // want `without a nil check`
	r.observe(ev)
}

// Install and Uninstall are the only sanctioned writes.
func goodInstall(r *recorder) {
	old := active.Install(r)
	active.Uninstall()
	_ = old
}

// The embedded atomic.Pointer promotes raw writes that skip them.
func badRawWrites(r *recorder) {
	active.Store(r)               // want `written through Store`
	active.Swap(nil)              // want `written through Swap`
	active.CompareAndSwap(nil, r) // want `written through CompareAndSwap`
	active.Pointer.Store(r)       // want `written through Pointer`
	set := active.Store           // want `written through Store`
	set(nil)
}
