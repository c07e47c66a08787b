package experiment

import (
	"fmt"

	"hiconc/internal/conc"
)

// measureE11 times universal construction scaling: throughput vs
// goroutine count for the HI universal construction against the leaky
// ablation, a mutex-guarded object and a bare CAS loop.
func measureE11(c *Config) error {
	fmt.Println("=== E11: universal construction scaling (counter, 80% updates)")
	fmt.Printf("%6s %14s %14s %14s %14s\n", "procs", "universal-hi", "leaky", "mutex", "cas-nohelp")
	for _, n := range c.Procs {
		row := make([]string, 0, 4)
		for _, a := range []conc.Applier{
			conc.NewUniversal(conc.CounterObj{}, n),
			conc.NewLeakyUniversal(conc.CounterObj{}, n),
			conc.NewMutexObject(conc.CounterObj{}),
			conc.NewNoHelpUniversal(conc.CounterObj{}),
		} {
			opsPer := c.Ops / n
			elapsed := runCounter(a, n, opsPer, 0.2, 0)
			row = append(row, perOp(elapsed, opsPer*n))
			c.Rec.RecordPerOp("E11", fmt.Sprintf("%s/procs=%d", a.Name(), n), elapsed, opsPer*n)
		}
		fmt.Printf("%6d %14s %14s %14s %14s\n", n, row[0], row[1], row[2], row[3])
	}
	fmt.Println("    (ns/op; universal-hi pays a constant factor over leaky for clearing,")
	fmt.Println("     and over cas-nohelp for announcing+helping — the price of wait-free HI)")
	fmt.Println()
	return nil
}
