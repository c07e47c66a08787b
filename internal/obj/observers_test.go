package obj_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hiconc/internal/hihash"
	"hiconc/internal/hirec"
	"hiconc/internal/histats"
	"hiconc/internal/obj"
)

var update = flag.Bool("update", false, "rewrite golden files")

// observedScript is one deterministic single-goroutine run through every
// API layer that carries observer sites: a displacing obj.HashSet that
// evicts, relocates, grows under insert pressure and by request, removes
// and looks up; and an obj.ShardedSet over universal-construction shards.
func observedScript() {
	const domain = 64
	s := obj.NewHashSetWithGroups(domain, 2)
	heavy := hihash.KeysHomingAt(domain, 2, 0, 2*hihash.SlotsPerGroup+1)
	for i := len(heavy) - 1; i >= 0; i-- {
		s.Insert(heavy[i])
	}
	for k := 1; k <= 20; k++ {
		s.Insert(k)
	}
	for k := 2; k <= 20; k += 3 {
		s.Remove(k)
	}
	s.Remove(heavy[0])
	s.Remove(domain)
	s.Grow()
	for k := 1; k <= 24; k++ {
		s.Contains(k)
	}

	// A run that overflows its home group into the next, then a remove
	// in the home group: the backward shift pulls a displaced key back.
	pull := obj.NewHashSetWithGroups(domain, 8)
	run := hihash.KeysHomingAt(domain, 8, 0, hihash.SlotsPerGroup+2)
	for _, k := range run {
		pull.Insert(k)
	}
	pull.Remove(run[1])
	pull.Contains(run[len(run)-1])

	ss := obj.NewShardedSet(2, 32, 4).Handle(0)
	for k := 1; k <= 8; k++ {
		ss.Insert(k)
	}
	ss.Remove(3)
	ss.Contains(3)
	ss.Contains(4)
}

// TestObserversGolden pins what the three observers see of
// observedScript with all of them installed: the metrics counters and
// histograms, the flight recorder's events (kind, name, argument and
// response; sequence numbers, timestamps and lanes vary run to run) and
// the steppoint hook's calls, in order. A change to any observer site —
// one dropped, added, moved or relabeled — shows up as a diff.
// Regenerate with: go test ./internal/obj -run ObserversGolden -update
func TestObserversGolden(t *testing.T) {
	stats := histats.NewRecorder()
	flight := hirec.NewRecorder(1 << 12)
	var steps []hihash.Steppoint
	histats.EnableWith(stats)
	histats.Record(flight)
	hihash.SetStepHook(func(p hihash.Steppoint) { steps = append(steps, p) })
	observedScript()
	hihash.SetStepHook(nil)
	histats.Record(nil)
	histats.Disable()

	var b strings.Builder
	snap := stats.Snapshot()
	for c := histats.Counter(0); c < histats.NumCounters; c++ {
		fmt.Fprintf(&b, "counter %s %d\n", c, snap.Counters[c])
	}
	for h := histats.Hist(0); h < histats.NumHists; h++ {
		hs := &snap.Hists[h]
		fmt.Fprintf(&b, "hist %s count=%d sum=%d", h, hs.Count, hs.Sum)
		for i, n := range hs.Buckets {
			if n != 0 {
				fmt.Fprintf(&b, " b%d=%d", i, n)
			}
		}
		b.WriteByte('\n')
	}
	rec := flight.Snapshot()
	fmt.Fprintf(&b, "dropped %d\n", rec.Dropped)
	kinds := map[hirec.Kind]string{hirec.KInvoke: "invoke", hirec.KReturn: "return", hirec.KStep: "step"}
	for _, ev := range rec.Events {
		fmt.Fprintf(&b, "event %s %s arg=%d resp=%d\n", kinds[ev.Kind], ev.Name, ev.Arg, ev.Resp)
	}
	for _, p := range steps {
		fmt.Fprintf(&b, "hook %s\n", p)
	}
	got := b.String()

	golden := filepath.Join("testdata", "observers.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("observations differ from %s (regenerate with -update if the change is intended):\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the first lines at which want and got part.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(w), len(g)) && shown < 10; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
			shown++
		}
	}
	return b.String()
}
