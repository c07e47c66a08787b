package experiment

import (
	"fmt"
	"sync"
	"time"

	"hiconc/internal/conc"
	"hiconc/internal/workload"
)

// measureE12 times the cost of history independence: ns/op of the full
// construction vs the non-clearing ablation across operation mixes.
func measureE12(c *Config) error {
	fmt.Println("=== E12: the cost of clearing (full Algorithm 5 vs non-clearing ablation)")
	fmt.Printf("%10s %8s %14s %14s %10s\n", "object", "readFrac", "universal-hi", "leaky", "overhead")
	for _, readFrac := range []float64{0.0, 0.5, 0.9} {
		const n = 4
		full := conc.NewUniversal(conc.CounterObj{}, n)
		leaky := conc.NewLeakyUniversal(conc.CounterObj{}, n)
		tFull := runCounter(full, n, c.Ops/n, readFrac, 100)
		tLeaky := runCounter(leaky, n, c.Ops/n, readFrac, 100)
		fmt.Printf("%10s %8.1f %14s %14s %9.2fx\n", "counter", readFrac,
			perOp(tFull, c.Ops), perOp(tLeaky, c.Ops),
			float64(tFull)/float64(tLeaky))
		c.Rec.RecordPerOp("E12", fmt.Sprintf("universal-hi/reads=%.1f", readFrac), tFull, c.Ops)
		c.Rec.RecordPerOp("E12", fmt.Sprintf("leaky/reads=%.1f", readFrac), tLeaky, c.Ops)
	}
	fmt.Println("    (overhead should be a modest constant factor — clearing adds one")
	fmt.Println("     SC to head, one announce Store and the RL releases per operation)")
	return nil
}

// runCounter drives applier a with n goroutines, each replaying opsPer
// operations of a counter mix seeded seed0+pid.
func runCounter(a conc.Applier, n, opsPer int, readFrac float64, seed0 int64) time.Duration {
	return timeIt(func() {
		var wg sync.WaitGroup
		for pid := 0; pid < n; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				ops := workload.NewGen(seed0+int64(pid)).CounterMix(opsPer, readFrac)
				for _, op := range ops {
					a.Apply(pid, op)
				}
			}(pid)
		}
		wg.Wait()
	})
}
