package limitless_test

// Allocation-regression gate for the one-engine hot path. The
// zero-alloc work (messages recycled by the network port once delivered,
// MSHR free lists, hoisted workload continuations), run-scoped buffers
// (cache pages, directory tables and entry chunks, engine buckets, the
// network's per-node arrays and spare messages) and pooled per-node
// objects (controllers, processors,
// caches and IPI queues with their packets, all handed back through
// Machine.Release) brought the benchmark Weather run from ~114k
// allocations and 3.4 MB per simulation down to ~3.4k and ~123 KB. The
// lossy Weather run (the benchmark's fault plan, reliable transport
// armed) allocates the same: its link table and hold buffer come back
// with the network, its retransmission and duplicate records are pooled,
// and its duplicated and replayed messages are copies held by value in
// those records and in the node (~4.7k allocations and ~376 KB before). Most of what is left is the
// workload generators' per-thread continuations and barrier trees, built
// afresh for every run. This test pins the steady state so an accidental
// per-event, per-message or per-trap allocation (each fires hundreds to
// hundreds of thousands of times per run), or a buffer or object that
// stops being recycled, shows up as a tier-1 failure rather than a silent
// throughput regression.

import (
	"math"
	"runtime"
	"testing"

	limitless "limitless"
)

// allocCeiling is the allowed steady-state allocation count for one
// sequential 64-processor LimitLESS(4) Weather run — the configuration of
// BenchmarkSimulatorThroughput — with and without the lossy fault plan
// (BenchmarkFaultedThroughput). Measured ~3.41k for both once the
// machine's objects and buffers are recycled (was ~7.5k with each node's
// objects built afresh, and the lossy run ~4.7k with its per-link maps
// and duplicate closures); the ceiling leaves ~20% headroom for benign
// drift while staying far below the ~114k of the pre-arena simulator, and
// orders of magnitude below the ~150k actions per run that a per-event
// allocation would cost.
const allocCeiling = 4100

// raceAllocCeiling replaces allocCeiling in race builds, where sync.Pool
// drops Puts at random, so a share of each run's per-node objects is built
// afresh. It is the ceiling from before the per-node objects were pooled:
// a run that drew no pooled object at all stays under it, and a per-event
// or per-message allocation still lands far above it.
const raceAllocCeiling = 9400

// The bytes ceilings bound the heap bytes one steady-state run allocates,
// which is what paces the garbage collector. Each sits ~25% above the
// value measured when it was set: Weather ~134 KB, Multigrid ~104 KB and
// a one-engine P=256 Weather ~540 KB per run (~0.54 MB, ~0.43 MB and
// ~2.2 MB before the per-node objects were pooled), and the lossy Weather
// run ~123 KB (~376 KB while its per-link state lived in maps built for
// each run). With the network's per-node arrays pooled too, the first
// three measure ~123 KB, ~94 KB and ~498 KB. An object or buffer that
// stops being recycled at Machine.Release trips them: a P=64 node's
// memory controller alone took ~2 KB, a Weather run fills ~0.6 MB of
// cache pages, and the lossy run's link table and maps took ~110 KB. A
// run's messages are the most it has in flight at once (64–69 at P=64
// and 256 at P=256, against 23.8k–93.8k sent), and they come back with
// the network as its spare list.
const (
	weatherBytesCeiling    = 168_000
	multigridBytesCeiling  = 131_000
	weather256BytesCeiling = 676_000
	lossyBytesCeiling      = 154_000
)

// lossyFaults is the lossy benchmark workload's fault plan at its default
// seed: every fault class, with the reliable transport armed.
const lossyFaults = "42:delay=0.05,dup=0.02,stall=0.1,trap=0.1,drop=0.02,corrupt=0.01"

// dirBytesCeiling bounds the packed directory's measured bytes per entry
// for the same run. A LimitLESS(4) entry holds its four hardware pointers
// inline in the 24-byte set header; only software-extended lines add
// arena words, so the average must stay well under the boxed
// representation's 72 B/entry floor (header + interface + Limited
// struct). Measured ~25 B/entry; the ceiling catches a regression to
// heap-boxed sets or an arena leak.
const dirBytesCeiling = 40.0

// bytesPerRun returns the heap bytes one call of run allocates in the
// steady state: the smallest TotalAlloc delta per call over a few batches,
// after a warm-up call has filled the pools. A buffer that is not recycled
// costs every call, so it shows in every batch; the minimum drops the
// occasional batch in which a collection emptied a pool mid-run. Like
// testing.AllocsPerRun it runs on one P: sync.Pool keeps one object per P
// where no other P can draw it, so a goroutine that moved between Ps would
// miss a pooled engine or cache and count its rebuild.
func bytesPerRun(run func()) float64 {
	const batches, calls = 3, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	best := math.Inf(1)
	for b := 0; b < batches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return best
}

func TestSequentialAllocRegression(t *testing.T) {
	var dirBytesPerEntry float64
	ceiling := allocCeiling
	if raceEnabled {
		ceiling = raceAllocCeiling
	}
	for _, c := range []struct{ name, faults string }{
		{"Weather", ""},
		{"lossy Weather", lossyFaults},
	} {
		cfg := limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4, Faults: c.faults}
		run := func() {
			res, err := limitless.Run(cfg, limitless.Weather(benchProcs))
			if err != nil {
				t.Fatal(err)
			}
			if c.faults == "" {
				dirBytesPerEntry = res.DirectoryBytesPerEntry
			}
		}
		run() // fill the pools and engine free lists
		allocs := testing.AllocsPerRun(3, run)
		t.Logf("%s: steady-state allocations per run: %.0f (ceiling %d)", c.name, allocs, ceiling)
		if allocs > float64(ceiling) {
			t.Errorf("sequential %s run allocates %.0f times, above the pinned ceiling %d; "+
				"something on the per-event or per-message path has started allocating",
				c.name, allocs, ceiling)
		}
	}
	t.Logf("directory bytes per entry: %.1f (ceiling %.0f)", dirBytesPerEntry, dirBytesCeiling)
	if dirBytesPerEntry <= 0 || dirBytesPerEntry > dirBytesCeiling {
		t.Errorf("directory measures %.1f B/entry, outside (0, %.0f]; "+
			"the packed sharer sets have regressed toward the boxed footprint or the arena is leaking",
			dirBytesPerEntry, dirBytesCeiling)
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

func TestSequentialAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector, so recycling cannot be measured")
	}
	for _, c := range []struct {
		name    string
		procs   int
		wl      func(int) limitless.Workload
		faults  string
		ceiling float64
	}{
		{"weather", benchProcs, limitless.Weather, "", weatherBytesCeiling},
		{"multigrid", benchProcs, limitless.Multigrid, "", multigridBytesCeiling},
		{"weather P=256", 256, limitless.Weather, "", weather256BytesCeiling},
		{"lossy weather", benchProcs, limitless.Weather, lossyFaults, lossyBytesCeiling},
	} {
		cfg := limitless.Config{Procs: c.procs, Scheme: limitless.LimitLESS, Pointers: 4, Faults: c.faults}
		got := bytesPerRun(func() {
			if _, err := limitless.Run(cfg, c.wl(c.procs)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: steady-state bytes allocated per run: %.0f (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("sequential %s run allocates %.0f bytes, above the pinned ceiling %.0f; "+
				"a run-scoped buffer is no longer recycled at Machine.Release, or a new per-run "+
				"allocation has appeared", c.name, got, c.ceiling)
		}
	}
}
