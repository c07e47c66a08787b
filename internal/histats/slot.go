package histats

import (
	"sync"

	"hiconc/internal/hirec"
	"hiconc/internal/hook"
)

// observers is the set the slot holds, each observer nil when not
// installed. An installed set is never written; installs swap in a copy.
type observers struct {
	stats  *Recorder
	flight *hirec.Recorder
	onStep func(Counter)
}

var (
	slot      hook.Point[observers] // the installed set; empty when no observer is
	installMu sync.Mutex            // serializes installs, so none drops another's change
)

// install swaps in the set as edit changes it (the empty slot if no
// observer is left) and returns the set it replaced.
func install(edit func(*observers)) (old observers) {
	installMu.Lock()
	defer installMu.Unlock()
	if o := slot.Load(); o != nil {
		old = *o
	}
	next := old
	edit(&next)
	if next.stats == nil && next.flight == nil && next.onStep == nil {
		slot.Uninstall()
	} else {
		slot.Install(&next)
	}
	return old
}

// Enable installs a fresh Recorder as the metrics sink and returns it.
func Enable() *Recorder {
	r := NewRecorder()
	EnableWith(r)
	return r
}

// EnableWith installs r as the metrics sink. Sites that loaded the one
// it replaces finish their current write against that one.
func EnableWith(r *Recorder) { install(func(o *observers) { o.stats = r }) }

// Disable uninstalls the metrics recorder and returns it (nil if none
// was installed), so callers can still snapshot what it gathered.
func Disable() *Recorder { return install(func(o *observers) { o.stats = nil }).stats }

// Active returns the installed metrics recorder, nil when disabled.
func Active() *Recorder {
	if o := slot.Load(); o != nil {
		return o.stats
	}
	return nil
}

// Enabled reports whether a metrics recorder is installed, so callers
// can skip building values that only exist to be observed.
func Enabled() bool { return Active() != nil }

// Record installs r as the flight recorder (nil uninstalls it) and
// returns the one it replaces.
func Record(r *hirec.Recorder) (old *hirec.Recorder) {
	return install(func(o *observers) { o.flight = r }).flight
}

// Recording returns the installed flight recorder, nil when none is.
func Recording() *hirec.Recorder {
	if o := slot.Load(); o != nil {
		return o.flight
	}
	return nil
}

// SetStepHook installs fn as the step hook (nil removes it); see Step.
func SetStepHook(fn func(Counter)) { install(func(o *observers) { o.onStep = fn }) }

// The sites: each loads the slot once and inlines (TestSitesInline), so
// disabled it costs an atomic load and a branch.

// Observing reports whether any observer is installed. The API-layer
// operations test it first and, when it is false, run the operation
// alone: a disabled operation then pays one load and a branch, and no
// Token is built, spilled and checked across it.
func Observing() bool { return slot.Enabled() }

// Inc adds 1 to counter c.
func Inc(c Counter) { Add(c, 1) }

// Add adds n to counter c.
func Add(c Counter, n uint64) {
	if o := slot.Load(); o != nil {
		o.stats.Inc(c, n)
	}
}

// Observe records value v into histogram h.
func Observe(h Hist, v uint64) {
	if o := slot.Load(); o != nil {
		o.stats.Observe(h, v)
	}
}

// Step reports protocol step c of the calling goroutine: the metrics
// count it, the flight recorder records it under c's name, and the step
// hook is called last, since a fault-injection hook may kill the
// goroutine (the recording then shows a step with no response, as the
// post-hoc checker expects of a crashed operation).
func Step(c Counter) {
	if o := slot.Load(); o != nil {
		o.step(c)
	}
}

// Op is an API-layer operation: the counter its invocation adds 1 to
// and the name the flight recorder records it under.
type Op struct {
	Ctr  Counter
	Name string
}

// Invoke counts and records op's invocation with argument arg, and
// returns the token hirec.OpEnd takes with the response.
func Invoke(op Op, arg int) hirec.Token {
	if o := slot.Load(); o != nil {
		return o.invoke(op, arg)
	}
	return hirec.Token{}
}

// The enabled paths, out of line (invoke by directive) so the sites fit
// the inliner's budget.

func (o *observers) step(c Counter) {
	o.stats.Inc(c, 1)
	if o.flight != nil {
		o.flight.Step(counterNames[c])
	}
	if o.onStep != nil {
		o.onStep(c)
	}
}

//go:noinline
func (o *observers) invoke(op Op, arg int) hirec.Token {
	o.stats.Inc(op.Ctr, 1)
	if o.flight != nil {
		return o.flight.OpStart(op.Name, arg)
	}
	return hirec.Token{}
}
