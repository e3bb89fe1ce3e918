package sim

import "testing"

// selfRescheduler models a livelocked component: every event schedules a
// successor, the clock advances, and the progress counter never moves.
type selfRescheduler struct {
	eng    *Engine
	period Time
	fires  int
	limit  int
}

func (r *selfRescheduler) OnEvent(any) {
	r.fires++
	if r.limit == 0 || r.fires < r.limit {
		r.eng.AfterHandler(r.period, r, nil)
	}
}

func TestRunGuardedTripsOnLivelock(t *testing.T) {
	eng := New()
	r := &selfRescheduler{eng: eng, period: 5}
	eng.AtHandler(0, r, nil)

	var progress uint64
	w := Watchdog{Interval: 100, Progress: func() uint64 { return progress }}
	now, tripped := eng.RunGuarded(w, 1_000_000)
	if !tripped {
		t.Fatalf("watchdog did not trip on a livelocked run (now=%d)", now)
	}
	if now > 300 {
		t.Errorf("watchdog tripped late: now=%d, interval=100", now)
	}
	if eng.Pending() == 0 {
		t.Error("tripped run should leave the wedged events pending for diagnosis")
	}
}

func TestRunGuardedPassesProgressingRun(t *testing.T) {
	eng := New()
	var progress uint64
	prog := &selfRescheduler{eng: eng, period: 40, limit: 50}
	// Wrap so every event counts as progress.
	eng.At(0, func() {
		progress++
		prog.OnEvent(nil)
	})
	// The handler events themselves bump progress too.
	w := Watchdog{Interval: 100, Progress: func() uint64 { return progress + uint64(prog.fires) }}
	now, tripped := eng.RunGuarded(w, Forever)
	if tripped {
		t.Fatalf("watchdog tripped on a progressing run at %d", now)
	}
	if prog.fires != 50 {
		t.Errorf("run stopped early: %d fires", prog.fires)
	}
}

func TestRunGuardedDisabledMatchesRunUntil(t *testing.T) {
	mk := func() *Engine {
		eng := New()
		r := &selfRescheduler{eng: eng, period: 3, limit: 100}
		eng.AtHandler(0, r, nil)
		return eng
	}
	a, b := mk(), mk()
	wantNow := a.RunUntil(150)
	gotNow, tripped := b.RunGuarded(Watchdog{}, 150)
	if tripped {
		t.Fatal("zero-value watchdog must never trip")
	}
	if gotNow != wantNow || a.Processed() != b.Processed() {
		t.Errorf("disabled RunGuarded diverged: now %d vs %d, processed %d vs %d",
			gotNow, wantNow, b.Processed(), a.Processed())
	}
}
