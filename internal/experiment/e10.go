package experiment

import (
	"fmt"
	"sync"
	"time"

	"hiconc/internal/conc"
	"hiconc/internal/workload"
)

// measureE10 times the SWSR register algorithms: write/read latency vs
// K, and reader retry behaviour under a write storm (lock-free
// Algorithm 2 vs wait-free Algorithm 4).
func measureE10(c *Config) error {
	fmt.Println("=== E10: SWSR register algorithms (native, single writer + single reader)")
	fmt.Printf("%6s %12s %12s %12s %12s %12s\n", "K", "alg1 wr", "alg2 wr", "alg4 wr", "alg2 rd", "alg4 rd")
	for _, k := range []int{4, 16, 64, 256} {
		n := c.Ops
		g := workload.NewGen(1)
		writes := g.RegisterWrites(n, k)

		r1 := conc.NewAlg1Register(k, 1)
		t1 := timeIt(func() {
			for _, op := range writes {
				r1.Write(op.Arg)
			}
		})
		r2 := conc.NewAlg2Register(k, 1)
		t2 := timeIt(func() {
			for _, op := range writes {
				r2.Write(op.Arg)
			}
		})
		r4 := conc.NewAlg4Register(k, 1)
		t4 := timeIt(func() {
			for _, op := range writes {
				r4.Write(op.Arg)
			}
		})
		t2r := timeIt(func() {
			for i := 0; i < n; i++ {
				r2.Read()
			}
		})
		t4r := timeIt(func() {
			for i := 0; i < n; i++ {
				r4.Read()
			}
		})
		fmt.Printf("%6d %12s %12s %12s %12s %12s\n", k,
			perOp(t1, n), perOp(t2, n), perOp(t4, n), perOp(t2r, n), perOp(t4r, n))
		c.Rec.RecordPerOp("E10", fmt.Sprintf("alg1-write/K=%d", k), t1, n)
		c.Rec.RecordPerOp("E10", fmt.Sprintf("alg2-write/K=%d", k), t2, n)
		c.Rec.RecordPerOp("E10", fmt.Sprintf("alg4-write/K=%d", k), t4, n)
		c.Rec.RecordPerOp("E10", fmt.Sprintf("alg2-read/K=%d", k), t2r, n)
		c.Rec.RecordPerOp("E10", fmt.Sprintf("alg4-read/K=%d", k), t4r, n)
	}

	fmt.Println("\n    reader under a write storm (K=64):")
	fmt.Printf("%12s %14s %14s\n", "impl", "reads/sec", "retries/read")
	for _, impl := range []string{"alg2", "alg4"} {
		reads, retries := writeStorm(impl, 64, 200*time.Millisecond)
		fmt.Printf("%12s %14.0f %14.4f\n", impl, reads, retries)
		c.Rec.Record("E10", impl+"-storm-reads", "reads/sec", reads)
		c.Rec.Record("E10", impl+"-storm-retries", "retries/read", retries)
	}
	fmt.Println("    (Algorithm 2's reader retries and can starve; Algorithm 4's reader")
	fmt.Println("     is helped by the writer and never retries more than twice)")
	fmt.Println()
	return nil
}

// writeStorm hammers the register with writes while the reader reads for
// the given duration; it returns reads/second and mean retries per read.
func writeStorm(impl string, k int, d time.Duration) (readsPerSec, meanRetries float64) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var r2 *conc.Alg2Register
	var r4 *conc.Alg4Register
	if impl == "alg2" {
		r2 = conc.NewAlg2Register(k, 1)
	} else {
		r4 = conc.NewAlg4Register(k, 1)
	}
	wg.Add(1)
	go func() { // writer storm
		defer wg.Done()
		v := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			v = v%k + 1
			if r2 != nil {
				r2.Write(v)
			} else {
				r4.Write(v)
			}
		}
	}()
	reads, retries := 0, 0
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if r2 != nil {
			_, rt := r2.Read()
			retries += rt
		} else {
			r4.Read()
		}
		reads++
	}
	close(stop)
	wg.Wait()
	return float64(reads) / d.Seconds(), float64(retries) / float64(reads)
}
