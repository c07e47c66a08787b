// Package hook factors out the one-global-atomic-observer idiom: an
// observer hangs off a single global atomic pointer, so the disabled
// path of every instrumented site is one atomic load and a predicted
// branch. The stack has one such point: internal/histats' observer slot.
//
// A Point carries no synchronization beyond the pointer itself, which is
// exactly the idiom's contract: Install and Uninstall may race with
// instrumented traffic, and sites that already loaded the old observer
// finish their current event against it. Callers that need stronger
// hand-off (e.g. "no site still writes to the old observer") must
// quiesce the instrumented code themselves.
package hook

import "sync/atomic"

// Point is one global observer slot for observers of type T. The zero
// Point is empty and ready to use. Its Load (promoted from the embedded
// atomic.Pointer) returns the installed observer, nil when the point is
// empty: the load every instrumented site's fast path pays. Embedding,
// rather than wrapping Load in a method of its own, keeps a site of the
// form `if r := p.Load(); r != nil { r.observe(...) }` within the
// compiler's inlining budget, so a disabled site costs no call. The
// embedding promotes Store, Swap and CompareAndSwap as well; observers
// change only through Install and Uninstall, and hilint's hookpoint
// analyzer reports any other write to a point.
type Point[T any] struct {
	atomic.Pointer[T]
}

// Install makes v the observer and returns the previous one (nil if the
// point was empty). Installing nil is equivalent to Uninstall.
func (pt *Point[T]) Install(v *T) (old *T) { return pt.Swap(v) }

// Uninstall empties the point and returns the observer that was
// installed (nil if none), so callers can still drain what it gathered.
func (pt *Point[T]) Uninstall() (old *T) { return pt.Swap(nil) }

// Enabled reports whether an observer is installed.
func (pt *Point[T]) Enabled() bool { return pt.Load() != nil }
