package histats

import (
	"sync"
	"sync/atomic"
	"testing"

	"hiconc/internal/hirec"
)

// TestEnableDisableUnderTraffic drives the global hook from many
// goroutines while another flips Enable/Disable and a third snapshots
// continuously — the install/uninstall path must be race-free (the
// atomic pointer is the only coordination) and every event must land in
// whichever recorder was active when its site loaded the pointer.
func TestEnableDisableUnderTraffic(t *testing.T) {
	defer Disable()
	flips := 200
	if testing.Short() {
		flips = 50
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				Inc(CtrHashInsert)
				Add(CtrHashCASFail, 2)
				Observe(HistProbeLen, uint64(i%16))
				Observe(HistUpdateNanos, uint64(i))
			}
		}()
	}
	wg.Add(1)
	go func() { // snapshot reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r := Active(); r != nil {
				s := r.Snapshot()
				_ = s.Map()
				_ = s.Total()
			}
		}
	}()
	var recorders []*Recorder
	for i := 0; i < flips; i++ {
		recorders = append(recorders, Enable())
		if i%3 == 2 {
			Disable()
		}
	}
	close(stop)
	wg.Wait()
	// Post-quiescence: every recorder's totals are internally consistent
	// (histogram bucket sums equal their counts).
	for _, r := range recorders {
		s := r.Snapshot()
		for h := Hist(0); h < NumHists; h++ {
			var sum uint64
			for _, b := range s.Hists[h].Buckets {
				sum += b
			}
			if sum != s.Hists[h].Count {
				t.Fatalf("hist %v: bucket sum %d != count %d", h, sum, s.Hists[h].Count)
			}
		}
	}
}

// TestConcurrentInstalls has three goroutines install and remove
// different observers — the metrics recorder, the flight recorder and
// the step hook — at once, each ending with its own observer installed,
// while a fourth passes every kind of site. All three must be installed
// at the end: an install copies the slot's set and swaps in the copy,
// and one that raced another without serializing would drop the other's
// change.
func TestConcurrentInstalls(t *testing.T) {
	defer func() {
		Disable()
		Record(nil)
		SetStepHook(nil)
	}()
	rounds := 2000
	if testing.Short() {
		rounds = 500
	}
	stats := NewRecorder()
	flight := hirec.NewRecorder(1 << 8)
	var hooked atomic.Uint64
	hook := func(Counter) { hooked.Add(1) }

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			hirec.OpEnd(Invoke(Op{Ctr: CtrHashInsert, Name: "insert"}, 1), 0)
			Step(CtrMarkSet)
			Inc(CtrHashCASFail)
			Observe(HistProbeLen, 1)
		}
	}()
	var installers sync.WaitGroup
	for _, obs := range []struct{ on, off func() }{
		{func() { EnableWith(stats) }, func() { Disable() }},
		{func() { Record(flight) }, func() { Record(nil) }},
		{func() { SetStepHook(hook) }, func() { SetStepHook(nil) }},
	} {
		installers.Add(1)
		go func() {
			defer installers.Done()
			for i := 0; i < rounds; i++ {
				obs.on()
				obs.off()
			}
			obs.on()
		}()
	}
	installers.Wait()
	close(stop)
	traffic.Wait()

	if Active() != stats {
		t.Error("the metrics recorder was dropped by a concurrent install")
	}
	if Recording() != flight {
		t.Error("the flight recorder was dropped by a concurrent install")
	}
	before := hooked.Load()
	Step(CtrMarkSet)
	if hooked.Load() == before {
		t.Error("the step hook was dropped by a concurrent install")
	}
}
