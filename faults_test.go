package limitless_test

import (
	"strings"
	"testing"

	limitless "limitless"
)

const chaosSpec = "42:delay=0.05,dup=0.02,stall=0.1,trap=0.1"

func runWeather16(t *testing.T, faults string, watchdog int64) limitless.Result {
	t.Helper()
	cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4,
		TrapService: 50, Faults: faults, WatchdogCycles: watchdog}
	res, err := limitless.Run(cfg, limitless.Weather(16))
	if err != nil {
		t.Fatalf("faults=%q: %v", faults, err)
	}
	return res
}

// TestFaultsZeroRateBitIdentical pins the acceptance criterion that the
// fault subsystem is pay-for-use: an absent spec and an all-zero-rate spec
// produce the exact pre-fault-subsystem cycle count (weather at P=16:
// 10411).
func TestFaultsZeroRateBitIdentical(t *testing.T) {
	base := runWeather16(t, "", 0)
	if base.Cycles != 10411 {
		t.Errorf("baseline drifted: cycles = %d, want 10411", base.Cycles)
	}
	zero := runWeather16(t, "7:", 0)
	if zero != base {
		t.Errorf("zero-rate fault spec perturbed the run:\n got %+v\nwant %+v", zero, base)
	}
	// A watchdog alone must observe, never steer.
	dog := runWeather16(t, "", 1_000_000)
	if dog != base {
		t.Errorf("watchdog perturbed a healthy run:\n got %+v\nwant %+v", dog, base)
	}
}

// TestFaultsReplayable: the same fault seed replays the identical injected
// schedule — rerunning a faulted configuration is bit-identical.
func TestFaultsReplayable(t *testing.T) {
	first := runWeather16(t, chaosSpec, 500_000)
	if first.Cycles == 0 || first.Messages == 0 {
		t.Fatalf("degenerate faulted run: %+v", first)
	}
	if again := runWeather16(t, chaosSpec, 500_000); again != first {
		t.Errorf("identical fault seed diverged across reruns:\n%+v\n%+v", first, again)
	}
}

// TestFaultsActuallyPerturb guards against the subsystem silently becoming
// a no-op: nonzero rates must change timing, reach the duplicate
// suppression path, and a different seed must produce a different schedule.
func TestFaultsActuallyPerturb(t *testing.T) {
	base := runWeather16(t, "", 0)
	faulted := runWeather16(t, chaosSpec, 0)
	if faulted.Cycles == base.Cycles {
		t.Errorf("fault injection changed nothing: both runs took %d cycles", base.Cycles)
	}
	if faulted.DupSuppressed == 0 {
		t.Errorf("dup=0.02 injected no suppressed duplicates: %+v", faulted)
	}
	if faulted.Violations != 0 {
		t.Errorf("survivable faults recorded %d protocol violations", faulted.Violations)
	}
	other := runWeather16(t, "43:delay=0.05,dup=0.02,stall=0.1,trap=0.1", 0)
	if other == faulted {
		t.Errorf("seeds 42 and 43 produced identical results — seed is not feeding the schedule")
	}
}

// TestNormalizeFaults: front ends echo the canonical spec; bad specs fail
// loudly before a machine is built.
func TestNormalizeFaults(t *testing.T) {
	got, err := limitless.NormalizeFaults("9:dup=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "9:") || !strings.Contains(got, "dup=0.5") || !strings.Contains(got, "dupdelay=8") {
		t.Errorf("canonical form %q missing seed, rate, or defaults", got)
	}
	if norm, err := limitless.NormalizeFaults(""); err != nil || norm != "" {
		t.Errorf("empty spec: got %q, %v", norm, err)
	}
	for _, bad := range []string{"nocolon", "1:dup=2", "1:bogus=0.1", "x:dup=0.1"} {
		if _, err := limitless.NormalizeFaults(bad); err == nil {
			t.Errorf("spec %q did not error", bad)
		}
	}
	cfg := limitless.Config{Procs: 16, Scheme: limitless.FullMap, Faults: "broken"}
	if _, err := limitless.Run(cfg, limitless.Weather(16)); err == nil {
		t.Error("Run accepted a malformed Faults spec")
	}
}

// TestWatchdogSurfacesDiagnostic: from the public API, a run that cannot
// progress returns a structured error naming the watchdog and the wedged
// state instead of spinning inside Run forever. A trap-service latency far
// beyond the watchdog budget makes every LimitLESS software trap look like
// a hang, which is exactly the shape of bug the watchdog exists to catch.
func TestWatchdogSurfacesDiagnostic(t *testing.T) {
	cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 2,
		TrapService: 400_000, WatchdogCycles: 2_000, MaxCycles: 50_000_000}
	_, err := limitless.Run(cfg, limitless.Weather(16))
	if err == nil {
		t.Fatal("stalled run returned no error")
	}
	for _, want := range []string{"watchdog", "simulation halted"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}
