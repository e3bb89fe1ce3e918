package experiments

import (
	"fmt"
	"math"
	"testing"

	limitless "limitless"
)

// The shape assertions of the paper's evaluation, at the paper's
// 64-processor scale. These are the package's contract: cmd/figures
// renders exactly this data.

func TestFig7AllSchemesComparable(t *testing.T) {
	bars, err := Fig7(64)
	if err != nil {
		t.Fatal(err)
	}
	min, max := int64(math.MaxInt64), int64(0)
	for _, b := range bars {
		if c := b.Cycles(); c < min {
			min = c
		}
		if c := b.Cycles(); c > max {
			max = c
		}
	}
	if spread := float64(max) / float64(min); spread > 1.1 {
		t.Fatalf("multigrid spread = %.2fx, want <= 1.1 (paper: approximately equal)", spread)
	}
}

func TestFig8LimitedThrashes(t *testing.T) {
	unopt, opt, err := Fig8(64)
	if err != nil {
		t.Fatal(err)
	}
	full := unopt[len(unopt)-1]
	if full.Name != "Full-Map" {
		t.Fatal("bar order changed")
	}
	for _, b := range unopt[:3] {
		if ratio := float64(b.Cycles()) / float64(full.Cycles()); ratio < 1.5 {
			t.Errorf("%s/full-map = %.2f, want >= 1.5", b.Name, ratio)
		}
		if b.Result.Evictions == 0 {
			t.Errorf("%s evicted nothing", b.Name)
		}
	}
	// Ordered: more pointers never hurt.
	if err := Verify("fig8", unopt, []string{"Dir1NB", "Dir2NB", "Dir4NB", "Full-Map"}); err != nil {
		t.Error(err)
	}
	// Optimized: the gap closes.
	if ratio := float64(opt[0].Cycles()) / float64(opt[1].Cycles()); ratio > 1.1 {
		t.Errorf("optimized Dir4NB/full-map = %.2f, want <= 1.1", ratio)
	}
}

func TestFig9LimitLESSNearFullMap(t *testing.T) {
	bars, err := Fig9(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify("fig9", bars, []string{
		"Dir4NB", "LimitLESS4 Ts=150", "LimitLESS4 Ts=100", "LimitLESS4 Ts=50", "LimitLESS4 Ts=25", "Full-Map",
	}); err != nil {
		t.Fatal(err)
	}
	full := bars[len(bars)-1].Cycles()
	ts50 := bars[3].Cycles()
	if ratio := float64(ts50) / float64(full); ratio > 1.35 {
		t.Errorf("LimitLESS4(Ts=50)/full-map = %.2f, want <= 1.35", ratio)
	}
	d4 := bars[0].Cycles()
	if ts150 := bars[1].Cycles(); ts150 >= d4 {
		t.Errorf("LimitLESS4(Ts=150) = %d not under Dir4NB = %d", ts150, d4)
	}
}

func TestFig10GracefulDegradation(t *testing.T) {
	bars, err := Fig10(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify("fig10", bars, []string{
		"Dir4NB", "LimitLESS1", "LimitLESS2", "LimitLESS4", "Full-Map",
	}); err != nil {
		t.Fatal(err)
	}
	ll1 := bars[1].Result
	ll4 := bars[3].Result
	if ll1.Traps <= ll4.Traps {
		t.Errorf("LimitLESS1 traps (%d) not above LimitLESS4 traps (%d)", ll1.Traps, ll4.Traps)
	}
}

func TestModelPredictsWithinTolerance(t *testing.T) {
	rows, err := Model(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.WorkerSet <= 4 && r.M != 0 {
			t.Errorf("worker-set %d has m = %.3f, want 0 (fits in hardware)", r.WorkerSet, r.M)
		}
		if e := math.Abs(r.ErrPct()); e > 15 {
			t.Errorf("ws=%d Ts=%d: model error %.0f%%, want <= 15%%", r.WorkerSet, r.Ts, e)
		}
	}
	// T_h calibration: the paper's 35-cycle ballpark.
	if rows[0].Th < 25 || rows[0].Th > 55 {
		t.Errorf("T_h = %.1f, want within [25, 55]", rows[0].Th)
	}
}

func TestScalingOverheadFalls(t *testing.T) {
	rows, err := Scaling()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Th <= rows[i-1].Th {
			t.Errorf("T_h not increasing: %.1f then %.1f", rows[i-1].Th, rows[i].Th)
		}
		if rows[i].Overhead() >= rows[i-1].Overhead() {
			t.Errorf("overhead not falling: %.2f then %.2f (hop %d -> %d)",
				rows[i-1].Overhead(), rows[i].Overhead(), rows[i-1].HopLatency, rows[i].HopLatency)
		}
	}
	last := rows[len(rows)-1]
	if last.Overhead() > 1.2 {
		t.Errorf("overhead at T_h=%.0f is %.2f, want <= 1.2 (T_h >> T_s regime)", last.Th, last.Overhead())
	}
}

func TestFIFOEvictTradesVectorsForTraps(t *testing.T) {
	plain, fifo, err := FIFOEvictComparison(64)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SoftwareVectorsPeak == 0 {
		t.Error("default handler allocated no vectors")
	}
	if fifo.SoftwareVectorsPeak != 0 {
		t.Errorf("FIFO eviction allocated %d vectors, want 0", fifo.SoftwareVectorsPeak)
	}
	if fifo.Traps <= plain.Traps {
		t.Errorf("FIFO traps (%d) not above vector traps (%d): every overflow evicts", fifo.Traps, plain.Traps)
	}
}

// Verify re-checks a figure's expected ordering, returning a descriptive
// error when the shape is broken.
func Verify(name string, bars []Bar, wantOrder []string) error {
	byName := map[string]int64{}
	for _, b := range bars {
		byName[b.Name] = b.Cycles()
	}
	for i := 1; i < len(wantOrder); i++ {
		a, b := wantOrder[i-1], wantOrder[i]
		ca, oka := byName[a]
		cb, okb := byName[b]
		if !oka || !okb {
			return fmt.Errorf("%s: missing bar %q or %q", name, a, b)
		}
		if ca < cb {
			return fmt.Errorf("%s: expected %s (%d) >= %s (%d)", name, a, ca, b, cb)
		}
	}
	return nil
}

func TestVerifyDetectsBrokenOrder(t *testing.T) {
	bars := []Bar{{Name: "a"}, {Name: "b"}}
	bars[0].Result.Cycles = 10
	bars[1].Result.Cycles = 20
	if err := Verify("x", bars, []string{"a", "b"}); err == nil {
		t.Fatal("broken order accepted")
	}
	if err := Verify("x", bars, []string{"b", "a"}); err != nil {
		t.Fatalf("correct order rejected: %v", err)
	}
	if err := Verify("x", bars, []string{"b", "missing"}); err == nil {
		t.Fatal("missing bar accepted")
	}
}

func TestMemoryModelAsymptotics(t *testing.T) {
	rows := MemoryModel()
	// At every size, full-map costs the most; LimitLESS costs O(log N).
	byKey := map[string]int{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s-%d", r.Scheme, r.Nodes)] = r.BitsPerEntry
	}
	for _, n := range []int{64, 256, 1024, 4096} {
		full := byKey[fmt.Sprintf("full-map-%d", n)]
		ll := byKey[fmt.Sprintf("limitless-%d", n)]
		if full <= ll {
			t.Errorf("at %d nodes full-map (%d) not above LimitLESS (%d)", n, full, ll)
		}
		if full < n {
			t.Errorf("full-map at %d nodes = %d bits, want >= N", n, full)
		}
	}
	// Full-map grows linearly in N per entry (O(N^2) machine-wide);
	// LimitLESS grows logarithmically.
	f64 := byKey["full-map-64"]
	f4096 := byKey["full-map-4096"]
	if f4096 < 50*f64 {
		t.Errorf("full-map growth 64->4096 = %dx, want roughly 64x (state/ack bits dilute it slightly)", f4096/f64)
	}
	l64 := byKey["limitless-64"]
	l4096 := byKey["limitless-4096"]
	if l4096 > 3*l64 {
		t.Errorf("LimitLESS growth 64->4096 = %d->%d, want O(log N)", l64, l4096)
	}
}

// TestPackedStorageReducesFootprint is the packed directory's memory claim:
// on a full-map machine the packed representation must measure at least 4x
// smaller than the boxed pointer-set objects it replaces. Weather is the
// paper's own workload mix — mostly small worker-sets, a few wide blocks
// that spill — and the run is bit-deterministic, so the measured ratio
// (4.10x at P=256) is stable, and it grows with P: a boxed full-map
// vector costs 200 B/entry at P=1024 against the packed header's 24 B.
// TestSpaceFootprintP1024 in internal/directory checks the P=1024 ratio
// at the unit level; EXPERIMENTS.md records measured full-run numbers.
func TestPackedStorageReducesFootprint(t *testing.T) {
	row, err := StoragePoint(256, limitless.FullMap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row.Packed <= 0 || row.Boxed <= 0 {
		t.Fatalf("measured footprints missing: %+v", row)
	}
	if row.Reduction() < 4 {
		t.Errorf("full-map P=256: boxed %.1f B/entry / packed %.1f B/entry = %.2fx, want >= 4x",
			row.Boxed, row.Packed, row.Reduction())
	}
}

// TestContextStudyNonSquare runs the block-multithreading study at P=8,
// which has no square mesh and whose ⌈√P⌉ does not divide it: the study
// must build all eight nodes (the most square 4×2 mesh), one context must
// never switch, and a second context must switch at least once.
func TestContextStudyNonSquare(t *testing.T) {
	cycles1, switches1 := ContextStudy(8, 1)
	cycles2, switches2 := ContextStudy(8, 2)
	if cycles1 <= 0 || cycles2 <= 0 {
		t.Fatalf("cycles = %d (1 context), %d (2 contexts), want both positive", cycles1, cycles2)
	}
	if switches1 != 0 {
		t.Errorf("one context made %d context switches, want 0", switches1)
	}
	if switches2 == 0 {
		t.Error("two contexts made no context switch")
	}
}
