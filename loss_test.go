package limitless_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	limitless "limitless"
)

// lossSpec is the full chaos mix with the loss classes armed: every fault
// class the subsystem implements, all at once.
const lossSpec = "42:delay=0.05,dup=0.02,stall=0.1,trap=0.1,drop=0.03,corrupt=0.02"

func runLossy(t testing.TB, cfg limitless.Config, label string) limitless.Result {
	if cfg.Faults == "" {
		cfg.Faults = lossSpec
	}
	cfg.WatchdogCycles = 1_000_000
	res, err := limitless.Run(cfg, limitless.Weather(16))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if res.Violations != 0 {
		t.Fatalf("%s: survivable loss recorded %d protocol violations", label, res.Violations)
	}
	return res
}

// TestLossEquivalenceMatrix is the loss-tolerance acceptance matrix: every
// scheme, run under the full fault mix including drop and corrupt, must
// complete SC-clean and rerun bit-identically.
func TestLossEquivalenceMatrix(t *testing.T) {
	for _, scheme := range allSchemes(t) {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			base := limitless.Config{Procs: 16, Scheme: scheme, Pointers: 4,
				TrapService: 50}

			ref := runLossy(t, base, string(scheme))
			if ref.FaultStats.Drops == 0 || ref.FaultStats.Retransmits == 0 {
				t.Errorf("loss classes never fired: %+v", ref.FaultStats)
			}
			if again := runLossy(t, base, string(scheme)+"/rerun"); again != ref {
				t.Errorf("rerun diverged:\n%+v\n%+v", ref, again)
			}
		})
	}
}

// TestLossMigratoryAllSchemes is the regression matrix for a chained walk
// that reached a reader whose RDATA was still in flight: every scheme runs
// the migratory token ring, whose readers spin on a flag while a writer's
// invalidation walks them, under a single drop class and under the full
// lossy mix. Every run must complete SC-clean within the cycle bound (the
// bug left readers spinning on stale copies forever).
func TestLossMigratoryAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes(t) {
		for _, faults := range []string{"7:drop=0.02", lossSpec} {
			cfg := limitless.Config{Procs: 16, Scheme: scheme, Pointers: 4, TrapService: 50,
				Faults: faults, Verify: true, WatchdogCycles: 1_000_000, MaxCycles: 1_000_000}
			label := fmt.Sprintf("%s/%s", scheme, faults)
			res, err := limitless.Run(cfg, limitless.Migratory(16, 2))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Violations != 0 {
				t.Fatalf("%s: %d protocol violations", label, res.Violations)
			}
		}
	}
}

// TestLossActuallyPerturbs guards the loss classes against silently
// becoming no-ops, and checks the latency-only contract: a lossy run takes
// longer than a fault-free one, never corrupts protocol state, and reports
// its recovery work in FaultStats.
func TestLossActuallyPerturbs(t *testing.T) {
	base := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50}
	clean, err := limitless.Run(base, limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	lossy := runLossy(t, base, "lossy")
	if lossy.Cycles <= clean.Cycles {
		t.Errorf("loss injection did not slow the run: %d vs %d cycles", lossy.Cycles, clean.Cycles)
	}
	fs := lossy.FaultStats
	if fs.Delays == 0 || fs.Dups == 0 || fs.Stalls == 0 || fs.Traps == 0 ||
		fs.Drops == 0 || fs.Corrupts == 0 || fs.Retransmits == 0 {
		t.Errorf("some fault class never fired under the full mix: %+v", fs)
	}
	if fs.Retransmits < fs.Drops {
		t.Errorf("every drop needs a retransmission: %+v", fs)
	}
	if clean.FaultStats != (limitless.FaultStats{}) {
		t.Errorf("fault-free run reported injections: %+v", clean.FaultStats)
	}
}

// TestTransportStuckDiagnostic: from the public API, a fault plan the
// transport cannot beat (every attempt dropped) returns a structured error
// naming the stuck link instead of hanging into the watchdog.
func TestTransportStuckDiagnostic(t *testing.T) {
	cfg := limitless.Config{Procs: 16, Scheme: limitless.FullMap,
		Faults: "1:drop=1,rto=16,rmax=3", WatchdogCycles: 500_000, MaxCycles: 10_000_000}
	_, err := limitless.Run(cfg, limitless.Weather(16))
	if err == nil {
		t.Fatal("all-drop run returned no error")
	}
	for _, want := range []string{"reliable transport", "retransmit budget", "stuck links"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not mention %q:\n%s", want, err)
		}
	}
}

// lossTrial builds one randomized lossy configuration from fuzz bytes and
// cross-checks its run against a rerun. Shared by the randomized test and
// FuzzLossEquivalence.
func lossTrial(t testing.TB, schemeB, ratesB, knobsB byte) {
	schemes := allSchemes(t)
	scheme := schemes[int(schemeB)%len(schemes)]
	// Rates stay modest so every trial terminates within the watchdog; the
	// transport budget covers the occasional unlucky link.
	drop := float64(1+int(ratesB&7)) / 100
	corrupt := float64(int(ratesB>>3)&7) / 200
	seed := 1 + int(knobsB)
	spec := fmt.Sprintf("%d:drop=%.2f,corrupt=%.3f,delay=0.03,dup=0.01", seed, drop, corrupt)

	cfg := limitless.Config{Procs: 16, Scheme: scheme, Pointers: 1 + int(knobsB>>4)%4,
		TrapService: 50, Faults: spec}
	label := fmt.Sprintf("%s/%s", scheme, spec)
	ref := runLossy(t, cfg, label)
	if got := runLossy(t, cfg, label+"/rerun"); got != ref {
		t.Fatalf("%s: rerun diverged:\n got %+v\nwant %+v", label, got, ref)
	}
}

// TestLossEquivalenceRandom replays seeded random lossy configurations —
// the always-on counterpart of FuzzLossEquivalence.
func TestLossEquivalenceRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(0x10552e55))
	for round := 0; round < 8; round++ {
		var b [3]byte
		rng.Read(b[:])
		lossTrial(t, b[0], b[1], b[2])
	}
}

// FuzzLossEquivalence lets the fuzzer drive the scheme, loss rates, and
// seed; every reachable lossy configuration must complete without
// protocol violations and rerun bit-identically.
func FuzzLossEquivalence(f *testing.F) {
	f.Add(byte(2), byte(0x1a), byte(0x42)) // limitless, drop+corrupt
	f.Add(byte(0), byte(0x07), byte(0x01)) // full-map, drop-heavy
	f.Add(byte(5), byte(0xff), byte(0x99)) // chained, both classes maxed
	f.Add(byte(3), byte(0x08), byte(0x30)) // software-only, corrupt-only spec byte
	f.Fuzz(func(t *testing.T, schemeB, ratesB, knobsB byte) {
		lossTrial(t, schemeB, ratesB, knobsB)
	})
}
