// Package hiconc_test is the root benchmark harness: one benchmark family
// per experiment of EXPERIMENTS.md. Run all of them with
//
//	go test -bench=. -benchmem
//
// The cmd/hibench tool prints the same measurements as formatted tables.
package hiconc_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hiconc/internal/adversary"
	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/hicheck"
	"hiconc/internal/hihash"
	"hiconc/internal/linearize"
	"hiconc/internal/llsc"
	"hiconc/internal/registers"
	"hiconc/internal/shard"
	"hiconc/internal/sim"
	"hiconc/internal/spec"
	"hiconc/internal/universal"
	"hiconc/internal/workload"
)

// --- E10: native SWSR register algorithms ---

func BenchmarkE10Write(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		writes := workload.NewGen(1).RegisterWrites(4096, k)
		b.Run(fmt.Sprintf("alg1/K=%d", k), func(b *testing.B) {
			r := conc.NewAlg1Register(k, 1)
			for i := 0; i < b.N; i++ {
				r.Write(writes[i%len(writes)].Arg)
			}
		})
		b.Run(fmt.Sprintf("alg2/K=%d", k), func(b *testing.B) {
			r := conc.NewAlg2Register(k, 1)
			for i := 0; i < b.N; i++ {
				r.Write(writes[i%len(writes)].Arg)
			}
		})
		b.Run(fmt.Sprintf("alg4/K=%d", k), func(b *testing.B) {
			r := conc.NewAlg4Register(k, 1)
			for i := 0; i < b.N; i++ {
				r.Write(writes[i%len(writes)].Arg)
			}
		})
	}
}

func BenchmarkE10Read(b *testing.B) {
	for _, k := range []int{4, 64} {
		b.Run(fmt.Sprintf("alg1/K=%d", k), func(b *testing.B) {
			r := conc.NewAlg1Register(k, k)
			for i := 0; i < b.N; i++ {
				r.Read()
			}
		})
		b.Run(fmt.Sprintf("alg2/K=%d", k), func(b *testing.B) {
			r := conc.NewAlg2Register(k, k)
			for i := 0; i < b.N; i++ {
				r.Read()
			}
		})
		b.Run(fmt.Sprintf("alg4/K=%d", k), func(b *testing.B) {
			r := conc.NewAlg4Register(k, k)
			for i := 0; i < b.N; i++ {
				r.Read()
			}
		})
	}
}

func BenchmarkE10ReadUnderWriteStorm(b *testing.B) {
	const k = 64
	b.Run("alg2", func(b *testing.B) {
		r := conc.NewAlg2Register(k, 1)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := 1
			for {
				select {
				case <-stop:
					return
				default:
					v = v%k + 1
					r.Write(v)
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Read()
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
	b.Run("alg4", func(b *testing.B) {
		r := conc.NewAlg4Register(k, 1)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := 1
			for {
				select {
				case <-stop:
					return
				default:
					v = v%k + 1
					r.Write(v)
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Read()
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// --- E11: universal construction scaling ---

// benchApplier drives a with n goroutines splitting b.N operations of the
// given mix.
func benchApplier(b *testing.B, a conc.Applier, n int, readFrac float64) {
	b.Helper()
	mixes := make([][]core.Op, n)
	for pid := range mixes {
		mixes[pid] = workload.NewGen(int64(pid)).CounterMix(4096, readFrac)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/n + 1
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			mix := mixes[pid]
			for i := 0; i < per; i++ {
				a.Apply(pid, mix[i%len(mix)])
			}
		}(pid)
	}
	wg.Wait()
}

func BenchmarkE11UniversalCounter(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("hi/procs=%d", n), func(b *testing.B) {
			benchApplier(b, conc.NewUniversal(conc.CounterObj{}, n), n, 0.2)
		})
		b.Run(fmt.Sprintf("leaky/procs=%d", n), func(b *testing.B) {
			benchApplier(b, conc.NewLeakyUniversal(conc.CounterObj{}, n), n, 0.2)
		})
		b.Run(fmt.Sprintf("mutex/procs=%d", n), func(b *testing.B) {
			benchApplier(b, conc.NewMutexObject(conc.CounterObj{}), n, 0.2)
		})
		b.Run(fmt.Sprintf("nohelp/procs=%d", n), func(b *testing.B) {
			benchApplier(b, conc.NewNoHelpUniversal(conc.CounterObj{}), n, 0.2)
		})
	}
}

func BenchmarkE11UniversalQueue(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("hi/procs=%d", n), func(b *testing.B) {
			a := conc.NewUniversal(conc.QueueObj{}, n)
			mixes := make([][]core.Op, n)
			for pid := range mixes {
				mixes[pid] = workload.NewGen(int64(pid)).QueueMix(4096, 0.2, 8)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/n + 1
			for pid := 0; pid < n; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						a.Apply(pid, mixes[pid][i%len(mixes[pid])])
					}
				}(pid)
			}
			wg.Wait()
		})
	}
}

// --- E12: clearing overhead ---

func BenchmarkE12ClearingOverhead(b *testing.B) {
	const n = 4
	for _, readFrac := range []float64{0.0, 0.5, 0.9} {
		b.Run(fmt.Sprintf("hi/reads=%.0f%%", readFrac*100), func(b *testing.B) {
			benchApplier(b, conc.NewUniversal(conc.CounterObj{}, n), n, readFrac)
		})
		b.Run(fmt.Sprintf("leaky/reads=%.0f%%", readFrac*100), func(b *testing.B) {
			benchApplier(b, conc.NewLeakyUniversal(conc.CounterObj{}, n), n, readFrac)
		})
	}
}

// --- E20: shard scaling and operation combining ---

// benchPerKey drives applier a with n goroutines, each replaying its own
// seeded per-key operation mix.
func benchPerKey(b *testing.B, a conc.Applier, n int, mix func(pid int) []core.Op) {
	b.Helper()
	mixes := make([][]core.Op, n)
	for pid := range mixes {
		mixes[pid] = mix(pid)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/n + 1
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			ops := mixes[pid]
			for i := 0; i < per; i++ {
				a.Apply(pid, ops[i%len(ops)])
			}
		}(pid)
	}
	wg.Wait()
}

// BenchmarkE20ShardScaling measures sharded-set and sharded-map throughput
// against the single-Universal baseline as the shard count grows, over a
// large key space with mild Zipf skew (s = 1.01, load spreads across
// shards). Two scaling mechanisms compose: on multicore hardware shards
// update in parallel, and on any hardware each update copies an immutable
// state that is S times smaller — so throughput rises with S even at
// GOMAXPROCS=1.
func BenchmarkE20ShardScaling(b *testing.B) {
	const n, domain = 8, 16384
	setMix := func(pid int) []core.Op {
		return workload.NewGen(int64(pid)).SetZipf(8192, domain, 1.01, 0.1)
	}
	mapMix := func(pid int) []core.Op {
		return workload.NewGen(int64(pid)).MapZipf(8192, 256, 1.01, 0.1)
	}
	b.Run("set/baseline", func(b *testing.B) {
		benchPerKey(b, conc.NewUniversal(conc.BigSetObj{Words: domain / 64}, n), n, setMix)
	})
	for _, s := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("set/shards=%d", s), func(b *testing.B) {
			benchPerKey(b, shard.NewSet(n, domain, s), n, setMix)
		})
	}
	b.Run("map/baseline", func(b *testing.B) {
		benchPerKey(b, conc.NewUniversal(conc.MultiCounterObj{}, n), n, mapMix)
	})
	for _, s := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("map/shards=%d", s), func(b *testing.B) {
			benchPerKey(b, shard.NewMap(n, 256, s), n, mapMix)
		})
	}
}

// BenchmarkE20Combining is the combining ablation: the same contended
// workloads through Algorithm 5 with and without operation combining. The
// counter case is total contention (every update hits one head); the
// sharded-map case adds combining on top of sharding under Zipf skew.
func BenchmarkE20Combining(b *testing.B) {
	const n, keys = 8, 64
	ctrMix := func(pid int) []core.Op {
		return workload.NewGen(int64(pid)).CounterMix(4096, 0.0)
	}
	mapMix := func(pid int) []core.Op {
		return workload.NewGen(int64(pid)).MapZipf(4096, keys, 1.5, 0.0)
	}
	b.Run("counter/plain", func(b *testing.B) {
		benchPerKey(b, conc.NewUniversal(conc.CounterObj{}, n), n, ctrMix)
	})
	b.Run("counter/combining", func(b *testing.B) {
		benchPerKey(b, conc.NewCombiningUniversal(conc.CounterObj{}, n), n, ctrMix)
	})
	for _, s := range []int{1, 4} {
		b.Run(fmt.Sprintf("map/shards=%d/plain", s), func(b *testing.B) {
			benchPerKey(b, shard.NewMap(n, keys, s), n, mapMix)
		})
		b.Run(fmt.Sprintf("map/shards=%d/combining", s), func(b *testing.B) {
			benchPerKey(b, shard.NewCombiningMap(n, keys, s), n, mapMix)
		})
	}
}

// --- E21: the HICHT direct hash table vs the universal-construction path ---

// BenchmarkE21HashTable measures the direct lock-free HICHT table
// (internal/hihash) against the sharded universal construction and a
// sync.Map baseline on insert/remove/lookup mixes at 8 goroutines, across
// load factors (table capacity relative to the domain) and Zipf skews.
// The hihash table has no per-object or per-shard serialization point —
// lookups are one atomic load and updates one CAS — so it should beat the
// sharded universal construction by a wide margin on every mix. Caveat
// for the load=1.0 column: at capacity == domain a fraction of inserts is
// rejected with RspFull, which is cheaper than a real insert; cmd/hibench
// -exp E21 prints the rejection rates (see EXPERIMENTS.md).
func BenchmarkE21HashTable(b *testing.B) {
	const n, domain = 8, 16384
	for _, s := range []float64{1.01, 1.5} {
		mix := func(pid int) []core.Op {
			return workload.NewGen(int64(pid)).SetZipf(8192, domain, s, 0.1)
		}
		b.Run(fmt.Sprintf("zipf=%.2f/hihash/load=0.5", s), func(b *testing.B) {
			benchPerKey(b, hihash.NewSet(domain, domain/2), n, mix)
		})
		b.Run(fmt.Sprintf("zipf=%.2f/hihash/load=1.0", s), func(b *testing.B) {
			benchPerKey(b, hihash.NewSet(domain, domain/4), n, mix)
		})
		b.Run(fmt.Sprintf("zipf=%.2f/sharded-universal/S=16", s), func(b *testing.B) {
			benchPerKey(b, shard.NewSet(n, domain, 16), n, mix)
		})
		b.Run(fmt.Sprintf("zipf=%.2f/syncmap", s), func(b *testing.B) {
			benchPerKey(b, conc.NewSyncMapSet(), n, mix)
		})
	}
}

// --- E22: the unbounded HICHT — displacement and online resize ---

// BenchmarkE22DisplaceLoadFactor measures the displacing table across
// load factors relative to its initial capacity, 0.5 through 1.5: past
// 1.0 the bounded table of E21 rejects inserts, the displacing one
// spills into neighbouring groups and doubles its array online. The
// bounded table and sync.Map anchor the comparison.
func BenchmarkE22DisplaceLoadFactor(b *testing.B) {
	const n, domain = 8, 8192
	g0 := domain / 8 // initial capacity domain/2
	mix := func(pid int) []core.Op {
		return workload.NewGen(int64(pid)).SetZipf(8192, domain, 1.01, 0.1)
	}
	for _, lf := range []float64{0.5, 1.0, 1.5} {
		load := int(lf * float64(g0) * hihash.SlotsPerGroup)
		b.Run(fmt.Sprintf("load=%.1f/displace", lf), func(b *testing.B) {
			s := hihash.NewDisplaceSet(domain, g0)
			for k := 1; k <= load; k++ {
				s.Insert(k)
			}
			benchPerKey(b, s, n, mix)
		})
		b.Run(fmt.Sprintf("load=%.1f/bounded", lf), func(b *testing.B) {
			s := hihash.NewSet(domain, g0)
			for k := 1; k <= load; k++ {
				s.Insert(k) // rejects silently above load 1.0 — E21's caveat
			}
			benchPerKey(b, s, n, mix)
		})
		b.Run(fmt.Sprintf("load=%.1f/syncmap", lf), func(b *testing.B) {
			s := conc.NewSyncMapSet()
			for k := 1; k <= load; k++ {
				s.Apply(0, core.Op{Name: spec.OpInsert, Arg: k})
			}
			benchPerKey(b, s, n, mix)
		})
	}
}

// BenchmarkE22ResizeUnderLoad fills the whole domain from 8 goroutines
// into a displacing table that starts 64x too small, so the cooperative
// migration runs several times mid-storm; the pre-sized variant is the
// no-resize ceiling and the gap between them is the amortized resize
// cost.
func BenchmarkE22ResizeUnderLoad(b *testing.B) {
	const n, domain = 8, 16384
	storm := func(b *testing.B, mk func() conc.Applier) {
		for i := 0; i < b.N; i++ {
			a := mk()
			var wg sync.WaitGroup
			per := domain / n
			for pid := 0; pid < n; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						a.Apply(pid, core.Op{Name: spec.OpInsert, Arg: pid*per + j + 1})
					}
				}(pid)
			}
			wg.Wait()
		}
	}
	b.Run("displace/G0=16", func(b *testing.B) {
		storm(b, func() conc.Applier { return hihash.NewDisplaceSet(domain, 16) })
	})
	b.Run("displace/presized", func(b *testing.B) {
		storm(b, func() conc.Applier { return hihash.NewDisplaceSet(domain, domain/2) })
	})
	b.Run("syncmap", func(b *testing.B) {
		storm(b, func() conc.Applier { return conc.NewSyncMapSet() })
	})
}

// --- R-LLSC cell primitives (Algorithm 6's native port) ---

func BenchmarkCellLLSC(b *testing.B) {
	b.Run("uncontended", func(b *testing.B) {
		c := conc.NewCell(0)
		for i := 0; i < b.N; i++ {
			v := c.LL(0)
			if !c.SC(0, v+1) {
				b.Fatal("uncontended SC failed")
			}
		}
	})
	b.Run("contended", func(b *testing.B) {
		c := conc.NewCell(0)
		var pidCtr atomic.Int32
		b.RunParallel(func(pb *testing.PB) {
			pid := int(pidCtr.Add(1)-1) % 64
			for pb.Next() {
				for {
					v := c.LL(pid)
					if c.SC(pid, v+1) {
						break
					}
				}
			}
		})
	})
	b.Run("load", func(b *testing.B) {
		c := conc.NewCell(7)
		for i := 0; i < b.N; i++ {
			_ = c.Load()
		}
	})
}

// --- E1/E2: checker machinery throughput ---

func BenchmarkE1CanonicalMap(b *testing.B) {
	h := registers.NewAlg2(3, 1)
	for i := 0; i < b.N; i++ {
		if _, err := hicheck.BuildCanon(h, 2, 400); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2Exhaustive(b *testing.B) {
	h := registers.NewAlg2(3, 1)
	c, err := hicheck.BuildCanon(h, 2, 400)
	if err != nil {
		b.Fatal(err)
	}
	scripts := hicheck.Scripts(h, []int{1, 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hicheck.CheckExhaustive(c, h, scripts, hicheck.StateQuiescent, 12, 1_000_000, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4/E5: adversary round throughput ---

func BenchmarkE4AdversaryRound(b *testing.B) {
	h := registers.NewAlg2(3, 1)
	c, err := hicheck.BuildCanon(h, 1, 400)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := adversary.Run(h, adversary.RegisterConfig(3), c, b.N)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Starved {
		b.Fatalf("unexpected outcome: %v", res)
	}
}

func BenchmarkE5QueueAdversaryRound(b *testing.B) {
	h := registers.NewHIQueue(3, 2)
	c, err := hicheck.BuildCanon(h, 2, 1500)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := adversary.Run(h, adversary.QueueConfig(3), c, b.N)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Starved {
		b.Fatalf("unexpected outcome: %v", res)
	}
}

// --- E6: simulator and universal construction in the simulator ---

func BenchmarkE6SimulatedUniversalOp(b *testing.B) {
	inc := core.Op{Name: spec.OpInc}
	for _, f := range []llsc.Factory{llsc.HardwareFactory{}, llsc.CASFactory{}} {
		b.Run(f.Name(), func(b *testing.B) {
			h := universal.CounterHarness(b.N+4, 1, f, universal.Full)
			script := make([]core.Op, b.N)
			for i := range script {
				script[i] = inc
			}
			r := h.BuildScripts([][]core.Op{script})
			b.ResetTimer()
			tr := r.Run(&sim.RoundRobin{}, 1<<62)
			b.StopTimer()
			if got := len(tr.Responses(0)); got != b.N {
				b.Fatalf("completed %d of %d ops", got, b.N)
			}
		})
	}
}

func BenchmarkSimStep(b *testing.B) {
	mem := sim.NewMemory()
	x := mem.NewReg("x", 0)
	prog := func(p *sim.Proc) {
		p.Invoke(core.Op{Name: "spin"}, false)
		for {
			p.Read(x)
		}
	}
	r := sim.NewRunner(mem, []sim.Program{prog}, sim.WithSnapshots(false))
	r.Start()
	defer r.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(0)
	}
}

// --- linearizability checker ---

func BenchmarkLinearizeCheck(b *testing.B) {
	h := registers.NewAlg4(3, 1)
	w := func(v int) core.Op { return core.Op{Name: spec.OpWrite, Arg: v} }
	rd := core.Op{Name: spec.OpRead}
	tr := h.Builder([][]core.Op{{w(2), w(3), w(1)}, {rd, rd, rd}})().Run(sim.NewRandomSched(5), 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := linearize.Check(h.Spec, tr.Events); err != nil {
			b.Fatal(err)
		}
	}
}
