package limitless_test

// Allocation-regression gate for the sequential engine's hot path. The
// zero-alloc work (message arenas, MSHR free lists, pooled cache line
// arrays, hoisted workload continuations) brought the benchmark Weather
// run from ~114k allocations per simulation down to under 20k; this test
// pins the steady state so an accidental per-event or per-message
// allocation (each fires hundreds of thousands of times per run) shows up
// as a tier-1 failure rather than a silent throughput regression.

import (
	"testing"

	limitless "limitless"
)

// allocCeiling is the allowed steady-state allocation count for one
// sequential 64-processor LimitLESS(4) Weather run — the configuration of
// BenchmarkSimulatorThroughput. Measured ~12.2k after the zero-alloc work,
// fused processor execution and processor-side spin-waits (dominated by
// per-thread workload setup and network buffers; parked pends replaced the
// pooled-event churn of the instruction pipeline, and spin-waits no longer
// allocate poll/retry closures); the ceiling leaves ~20% headroom for
// benign drift while staying far below the ~114k of the pre-arena
// simulator, and orders of magnitude below the ~150k actions per run that
// a per-event allocation would cost.
const allocCeiling = 14600

// dirBytesCeiling bounds the packed directory's measured bytes per entry
// for the same run. A LimitLESS(4) entry holds its four hardware pointers
// inline in the 24-byte set header; only software-extended lines add
// arena words, so the average must stay well under the boxed
// representation's 72 B/entry floor (header + interface + Limited
// struct). Measured ~25 B/entry; the ceiling catches a regression to
// heap-boxed sets or an arena leak.
const dirBytesCeiling = 40.0

func TestSequentialAllocRegression(t *testing.T) {
	cfg := limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4}
	var dirBytesPerEntry float64
	run := func() {
		res, err := limitless.Run(cfg, limitless.Weather(benchProcs))
		if err != nil {
			t.Fatal(err)
		}
		dirBytesPerEntry = res.DirectoryBytesPerEntry
	}
	run() // warm the line-array pool and engine free lists
	allocs := testing.AllocsPerRun(3, run)
	t.Logf("steady-state allocations per run: %.0f (ceiling %d)", allocs, allocCeiling)
	if allocs > allocCeiling {
		t.Errorf("sequential Weather run allocates %.0f times, above the pinned ceiling %d; "+
			"something on the per-event or per-message path has started allocating",
			allocs, allocCeiling)
	}
	t.Logf("directory bytes per entry: %.1f (ceiling %.0f)", dirBytesPerEntry, dirBytesCeiling)
	if dirBytesPerEntry <= 0 || dirBytesPerEntry > dirBytesCeiling {
		t.Errorf("directory measures %.1f B/entry, outside (0, %.0f]; "+
			"the packed sharer sets have regressed toward the boxed footprint or the arena is leaking",
			dirBytesPerEntry, dirBytesCeiling)
	}
}
