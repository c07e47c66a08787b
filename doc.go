// Package hiconc reproduces "History-Independent Concurrent Objects"
// (Attiya, Bender, Farach-Colton, Oshman, Schiller; PODC 2024,
// arXiv:2403.14445) as a Go library.
//
// A concurrent data structure is history independent (HI) when its shared
// memory representation reveals only its current abstract state — never the
// operations that produced it. The paper defines three observation models
// (perfect, state-quiescent, quiescent HI), proves that a large class of
// objects cannot be implemented wait-free and HI from small base objects,
// and gives a wait-free state-quiescent HI universal construction from CAS.
//
// The module layout. Verification-side packages model algorithms in a
// lock-step simulator where every primitive is one scheduled step;
// native-side packages port the same algorithms to goroutines and
// sync/atomic for performance work. The simulated register algorithms live
// in internal/registers, their native ports in internal/conc (alongside the
// native universal construction); the sequential specifications live in
// internal/spec (string-encoded states, used by the simulator and the
// checkers), while internal/conc defines its own Object interface over
// immutable Go values for the native side.
//
//   - internal/core — the abstract-object model of Section 2: operations,
//     responses, and the Spec interface with string-encoded states;
//   - internal/spec — concrete sequential specifications (counter,
//     register, max register, queue, set) for the simulator and checkers;
//   - internal/sim — the lock-step shared-memory simulator in which every
//     configuration's memory representation is observable (the substrate
//     for all verification);
//   - internal/harness — bundles an implementation with its spec and
//     process roles so checkers, fuzzers and adversaries drive any
//     implementation uniformly;
//   - internal/linearize, internal/hicheck — linearizability checking and
//     the history-independence checkers for Definitions 4/5/7/8;
//   - internal/registers — simulated Algorithms 1, 2 and 4, the Section
//     5.1 max register and set, and a queue-with-Peek from binary
//     registers;
//   - internal/llsc, internal/universal — Algorithm 6 (R-LLSC from CAS)
//     and simulated Algorithm 5 (the universal construction), with
//     ablation mutants and the Fatourou–Kallimanis-style baseline;
//   - internal/adversary — the constructive Theorem 17 and Theorem 20
//     impossibility adversaries;
//   - internal/conc — native ports: the R-LLSC Cell, Algorithm 5 (with the
//     leaky ablation and the operation-combining extension), the SWSR
//     register algorithms, sequential objects (counter, register, max
//     register, queue, stack, set, big set, multi-counter) and baselines;
//   - internal/shard — hash-partitioned scale-out objects composing many
//     universal-construction instances into one history-independent set or
//     multi-counter, plus the simulator harness that machine-checks the
//     composition;
//   - internal/hihash — the HICHT subsystem: a lock-free hash table whose
//     bucket groups are single CAS words holding keys in canonical
//     priority order, with no serialization point. The bounded variant is
//     perfectly HI; the unbounded variant adds cross-group Robin Hood
//     displacement (marked, helped relocations) and online resize, and is
//     state-quiescent HI — both shipped as machine-checked simulated
//     twins and a native sync/atomic port (Set). Since E26 the
//     native read path is SWAR word-parallel, bounds its validation
//     retries (falling back to helping after K failures) and runs
//     allocation-free, with scalar slot classifiers kept as a
//     differential-testing reference;
//   - internal/obj — the user-facing objects (Counter, Register,
//     MaxRegister, Queue, Stack, Set, ShardedSet, ShardedMap, HashSet);
//   - internal/faultinject — the executable HI adversary: deterministic
//     crash injection at the tables' labeled protocol steppoints, raw
//     memory dumps and the canonical-distance differ (E23);
//   - internal/hook — the global-observer idiom: a generic atomic
//     hook point with install/uninstall swap semantics;
//   - internal/histats — the observability layer: per-goroutine-sharded
//     atomic counters and log-bucketed latency histograms, and the one
//     observer slot (metrics, flight recorder, steppoint hook) that
//     every site loads once, so the disabled path is a single atomic
//     nil-check; metrics live outside the HI boundary by construction
//     and by machine check (E24);
//   - internal/hirec — the flight recorder: lock-free per-goroutine
//     capture of operation invocations/responses and protocol steps,
//     extracted to linearize histories so native runs and crash
//     schedules are machine-checked post hoc, and exported as Chrome
//     trace JSON and rendered timelines (E25);
//   - internal/benchfmt — the BENCH_<exp>.json document schema, the
//     recorder the drivers share, and the regression comparator behind
//     hibench -check;
//   - internal/workload — seeded operation-mix generators (uniform and
//     Zipf-skewed per-key mixes) for benchmarks and drivers;
//   - internal/trace — paper-figure-style execution rendering (simulated
//     schedules and native flight recordings), plus the live
//     protocol-metrics table behind hibench -watch;
//   - internal/hilint — the static-invariant suite: project-specific
//     analyzers (steppoint labeling, the hook.Point load idiom, the
//     write-free read path and unsafe perimeter, the sleep-wait ban)
//     over a minimal dependency-free go/analysis-style framework, plus
//     the escape-audit gate that proves the declared lookup hot paths
//     compile with zero heap escapes; cmd/hilint runs it all and CI
//     gates on it;
//   - internal/experiment — the experiment registry: one table of the
//     families E1-E26 and one file per family holding hiverify's check,
//     hibench's measurement, hitrace's render and histarve's adversary,
//     plus the one -exp parser all four drivers share;
//   - cmd/hiverify, cmd/histarve, cmd/hibench, cmd/hitrace — the
//     experiment drivers: their flags and plumbing around the registry
//     (see EXPERIMENTS.md).
//
// This file's directory also hosts the root benchmark harness
// (bench_test.go), with one benchmark family per experiment.
package hiconc
