// Package histats is the observability layer of the native HICHT stack:
// per-goroutine-sharded atomic counters and log-bucketed latency
// histograms for the protocol events of internal/hihash, internal/shard,
// internal/conc and internal/obj — and the stack's one observer slot.
//
// The slot (slot.go) holds the installed observers as one set: this
// package's Recorder, the internal/hirec flight recorder and the
// steppoint hook of hihash.SetStepHook. Every instrumented site calls
// one function here that loads the slot once; disabled, it costs that
// atomic load and a predicted branch. Enabled, counts land in
// per-goroutine shards of padded atomic cells, merged on demand by
// Snapshot. Experiments E24 and E25 gate the disabled-path overhead.
//
// Metrics are history by definition — a probe-length histogram is a
// digest of the execution — so this package must live outside the
// history-independence boundary: it never touches the objects' shared
// representation, and the objects never read it. The E23/E24 twin
// checks machine-verify the separation by asserting that RawWords dumps
// of instrumented tables are bit-identical to uninstrumented runs (see
// DESIGN.md, "Observability outside the HI boundary").
//
// All functions are safe for concurrent use; observers may be installed
// and removed while instrumented traffic runs (sites that loaded the old
// set finish against it).
package histats

import (
	"sync/atomic"

	"hiconc/internal/hirec"
)

// Counter identifies one monotonically increasing event count.
type Counter uint8

// The counters, grouped by layer.
const (
	// Protocol steppoints of the native table: each is the
	// hihash.Steppoint of the same value, counted by the table's stepAt,
	// so the count is exactly "how many times that protocol CAS landed".
	CtrBoundedUpdate Counter = iota
	CtrMarkSet
	CtrDestWritten
	CtrEvictSwap
	CtrSourceCleared
	CtrFlagPlaced
	CtrFlagCleared
	CtrGrowPublished
	CtrDrainCopied
	CtrDrainDropped
	CtrGonePlaced

	// hihash retry behaviour. All five are cold-path sites: their
	// disabled nil-check only executes when the contention they count
	// actually happened, so a quiet table pays nothing for them.
	CtrHashCASFail  // a CAS on a group word lost its race (one retry loop turn)
	CtrLookupRetry  // a validated double collect had to restart
	CtrHelpRelocate // a relocation completed on behalf of another operation
	CtrLookupHelp   // a lookup fell back to helping: it burned its retry budget, or missed mid-resize
	CtrGhostSweep   // a full-table scan for a stray copy: a remove while a ghost window was open, or a stranded-key pull-back

	// API-layer operation counts (obj.HashSet — the table itself keeps
	// its single-load lookups instrumentation-free; see DESIGN.md).
	CtrHashInsert // Insert calls
	CtrHashRemove // Remove calls
	CtrHashLookup // Contains calls

	// Universal construction (conc).
	CtrHeadRetry     // an SC on head failed (contention)
	CtrUniversalHelp // a process applied another process's announced op
	CtrCombineBatch  // a combining batch was installed by one SC

	// Composition layers.
	CtrShardOp // an operation routed through a sharded object

	// NumCounters bounds the enumeration.
	NumCounters
)

var counterNames = [NumCounters]string{
	CtrBoundedUpdate: "bounded-update",
	CtrMarkSet:       "mark-set",
	CtrDestWritten:   "dest-written",
	CtrEvictSwap:     "evict-swap",
	CtrSourceCleared: "source-cleared",
	CtrFlagPlaced:    "flag-placed",
	CtrFlagCleared:   "flag-cleared",
	CtrGrowPublished: "grow-published",
	CtrDrainCopied:   "drain-copied",
	CtrDrainDropped:  "drain-dropped",
	CtrGonePlaced:    "gone-placed",
	CtrHashInsert:    "hash-insert",
	CtrHashRemove:    "hash-remove",
	CtrHashLookup:    "hash-lookup",
	CtrHashCASFail:   "hash-cas-fail",
	CtrLookupRetry:   "lookup-retry",
	CtrHelpRelocate:  "help-relocate",
	CtrLookupHelp:    "lookup-help",
	CtrGhostSweep:    "ghost-sweep",
	CtrHeadRetry:     "head-retry",
	CtrUniversalHelp: "universal-help",
	CtrCombineBatch:  "combine-batch",
	CtrShardOp:       "shard-op",
}

// String implements fmt.Stringer.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter(?)"
}

// Hist identifies one value distribution (log-bucketed histogram).
type Hist uint8

// The histograms. Small values (< 64) land in exact buckets, so
// structural distributions (probe lengths, batch sizes, shard indices)
// are recorded precisely; larger values (latencies in nanoseconds) fall
// into eight sub-buckets per power of two, ±12.5% resolution.
const (
	HistProbeLen    Hist = iota // groups walked by a displacing placement
	HistRelocDist               // landing distance of a completed relocation
	HistLookupRetry             // validation retries of a lookup that retried at all
	HistBatchSize               // operations folded into one combining SC
	HistShardIndex              // which shard an operation routed to
	HistUpdateNanos             // workload-side update latency (ns)
	HistLookupNanos             // workload-side lookup latency (ns)

	// NumHists bounds the enumeration.
	NumHists
)

var histNames = [NumHists]string{
	HistProbeLen:    "probe-len",
	HistRelocDist:   "reloc-dist",
	HistLookupRetry: "lookup-retries",
	HistBatchSize:   "batch-size",
	HistShardIndex:  "shard-index",
	HistUpdateNanos: "update-ns",
	HistLookupNanos: "lookup-ns",
}

// String implements fmt.Stringer.
func (h Hist) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return "hist(?)"
}

// cacheLine separates neighbouring shards' hot words.
const cacheLine = 64

// histShard is one goroutine-shard's view of one histogram.
type histShard struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// shard is one goroutine-shard: a padded block of counters followed by
// the histogram arrays. The pads keep the counter block (the hottest
// words) off the cache lines of the neighbouring shard's tail.
type shard struct {
	counters [NumCounters]atomic.Uint64
	_        [cacheLine]byte
	hists    [NumHists]histShard
	_        [cacheLine]byte
}

// Recorder accumulates events into per-goroutine shards. All methods
// are safe for concurrent use; Snapshot merges the shards into one
// consistent-enough view (each cell is read atomically, the composite
// is not — totals lag in-flight writers by at most a few events).
type Recorder struct {
	shards []shard
	mask   uint64
}

// NewRecorder returns a recorder with one shard per hirec lane.
func NewRecorder() *Recorder {
	mask := hirec.LaneMask()
	return &Recorder{shards: make([]shard, mask+1), mask: mask}
}

// shard picks the calling goroutine's shard.
func (r *Recorder) shard() *shard { return &r.shards[hirec.Lane(r.mask)] }

// Inc adds n to counter c. A nil r records nothing (the sites call it
// whether metrics are installed or not), as does Observe.
func (r *Recorder) Inc(c Counter, n uint64) {
	if r != nil {
		r.shard().counters[c].Add(n)
	}
}

// Observe records value v into histogram h.
func (r *Recorder) Observe(h Hist, v uint64) {
	if r == nil {
		return
	}
	hs := &r.shard().hists[h]
	hs.buckets[bucketOf(v)].Add(1)
	hs.count.Add(1)
	hs.sum.Add(v)
}
