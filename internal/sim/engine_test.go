package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-cycle events ran out of schedule order: %v", order)
		}
	}
}

func TestEngineClockAdvancesDuringCallback(t *testing.T) {
	e := New()
	var seen Time
	e.At(42, func() { seen = e.Now() })
	e.Run()
	if seen != 42 {
		t.Fatalf("Now() inside callback = %d, want 42", seen)
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := New()
	var second Time
	e.At(10, func() {
		e.After(7, func() { second = e.Now() })
	})
	e.Run()
	if second != 17 {
		t.Fatalf("After fired at %d, want 17", second)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineCancel(t *testing.T) {
	e := New()
	ran := false
	ev := e.At(5, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Fatal("cancelled event still ran")
	}
	if ev.Scheduled() {
		t.Fatal("cancelled event still reports scheduled")
	}
	// Double-cancel, zero-handle cancel and cancel-after-run must be no-ops.
	e.Cancel(ev)
	e.Cancel(EventRef{})
	ev2 := e.At(e.Now()+1, func() {})
	e.Run()
	e.Cancel(ev2)
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var order []int
	evs := make([]EventRef, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(Time(i), func() { order = append(order, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	if len(order) != 8 {
		t.Fatalf("ran %d events, want 8", len(order))
	}
	for _, v := range order {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d ran", v)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(12)
	if len(ran) != 2 || ran[0] != 5 || ran[1] != 10 {
		t.Fatalf("RunUntil(12) executed %v, want [5 10]", ran)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("remaining events did not run: %v", ran)
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 25; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 25 {
		t.Fatalf("Processed = %d, want 25", e.Processed())
	}
}

func TestEngineStepOnEmptyQueue(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved on empty queue: %d", e.Now())
	}
}

// Property: for any set of non-negative deadlines, the engine executes
// exactly len(deadlines) events in non-decreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		e := New()
		var fired []Time
		for _, d := range raw {
			at := Time(d)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — two engines fed the same schedule produce the
// same execution order.
func TestEngineDeterminismProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		run := func() []int {
			e := New()
			var order []int
			for i, d := range raw {
				i := i
				e.At(Time(d), func() { order = append(order, i) })
			}
			e.Run()
			return order
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializesClaims(t *testing.T) {
	var r Resource
	if got := r.Claim(0, 10); got != 0 {
		t.Fatalf("first claim starts at %d, want 0", got)
	}
	if got := r.Claim(0, 10); got != 10 {
		t.Fatalf("second overlapping claim starts at %d, want 10", got)
	}
	if got := r.Claim(50, 5); got != 50 {
		t.Fatalf("claim after idle gap starts at %d, want 50", got)
	}
	if r.BusyCycles() != 25 {
		t.Fatalf("busy cycles = %d, want 25", r.BusyCycles())
	}
	if r.Claims() != 3 {
		t.Fatalf("claims = %d, want 3", r.Claims())
	}
}

func TestResourceFreeAt(t *testing.T) {
	var r Resource
	r.Claim(0, 10)
	if got := r.FreeAt(3); got != 10 {
		t.Fatalf("FreeAt(3) = %d, want 10", got)
	}
	if got := r.FreeAt(12); got != 12 {
		t.Fatalf("FreeAt(12) = %d, want 12", got)
	}
}

func TestResourceNegativeClaimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative claim did not panic")
		}
	}()
	var r Resource
	r.Claim(0, -1)
}

// Property: a resource never starts a claim before the requested time nor
// before the previous claim ends.
func TestResourceOrderingProperty(t *testing.T) {
	prop := func(reqs []struct{ From, Dur uint8 }) bool {
		var r Resource
		var prevEnd Time
		for _, q := range reqs {
			start := r.Claim(Time(q.From), Time(q.Dur))
			if start < Time(q.From) || start < prevEnd {
				return false
			}
			prevEnd = start + Time(q.Dur)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForeverIsLaterThanAnything(t *testing.T) {
	e := New()
	e.At(1<<40, func() {})
	if Forever <= 1<<40 {
		t.Fatal("Forever not far in the future")
	}
	e.RunUntil(Forever)
	if e.Pending() != 0 {
		t.Fatal("RunUntil(Forever) left events queued")
	}
}

// hookTrace runs a small script against an engine with an end-of-cycle
// hook and returns its execution log. Cycle 1 holds two events, a pend and
// an event one of them schedules into the same cycle; the first event arms
// the hook, and the hook schedules an event two cycles out. Cycle 5's event
// arms it again as the run's last action, so a drained RunUntil must run
// the hook before it returns.
func hookTrace(t *testing.T, kind SchedulerKind) ([]string, uint64) {
	t.Helper()
	e := New()
	e.SetScheduler(kind)
	var log []string
	add := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	e.SetCycleHook(func() {
		add("hook")
		if e.Now() == 1 {
			e.At(e.Now()+2, func() { add("fromhook") })
		}
	})
	p := NewPend(func() { add("pend") })
	e.At(1, func() {
		add("a")
		e.ArmCycleHook()
		e.At(1, func() { add("child") })
		e.ArmCycleHook() // arming twice in a cycle still runs the hook once
	})
	e.At(1, func() { add("b") })
	e.Park(p, 1)
	e.At(5, func() {
		add("c")
		e.ArmCycleHook()
	})
	if end := e.RunUntil(4); end != 3 {
		t.Fatalf("%v: RunUntil(4) ended at %d, want 3", kind, end)
	}
	add("paused")
	e.Run()
	add("drained")
	return log, e.Processed()
}

// TestCycleHook: the end-of-cycle hook runs once per armed cycle, after
// every event and pend of that cycle (including events scheduled into the
// cycle), before anything later and before a drained run returns. What it
// schedules runs in the same run, and Processed does not count it. The
// wheel and the heap run it at the same points.
func TestCycleHook(t *testing.T) {
	want := []string{"a@1", "b@1", "pend@1", "child@1", "hook@1", "fromhook@3",
		"paused@3", "c@5", "hook@5", "drained@5"}
	for _, kind := range []SchedulerKind{SchedWheel, SchedHeap} {
		got, processed := hookTrace(t, kind)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: trace %v, want %v", kind, got, want)
		}
		if processed != 6 {
			t.Errorf("%v: processed %d, want 6 (the hook is not an event)", kind, processed)
		}
	}
}

// TestCycleHookStep: Step runs an armed hook before it executes an action
// of a later cycle, and when nothing remains, without counting it as the
// step.
func TestCycleHookStep(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedWheel, SchedHeap} {
		e := New()
		e.SetScheduler(kind)
		var log []string
		e.SetCycleHook(func() { log = append(log, fmt.Sprintf("hook@%d", e.Now())) })
		e.At(2, func() { log = append(log, "x@2"); e.ArmCycleHook() })
		e.At(2, func() { log = append(log, "y@2") })
		e.At(4, func() { log = append(log, "z@4"); e.ArmCycleHook() })
		for e.Step() {
		}
		want := "[x@2 y@2 hook@2 z@4 hook@4]"
		if got := fmt.Sprint(log); got != want {
			t.Errorf("%v: stepped trace %s, want %s", kind, got, want)
		}
		if e.Processed() != 3 {
			t.Errorf("%v: processed %d, want 3", kind, e.Processed())
		}
	}
}

// TestParkParkedPendPanics: a pend is one continuation, so parking it while
// it waits — which would drop its first deadline — is a model bug.
func TestParkParkedPendPanics(t *testing.T) {
	e := New()
	p := NewPend(func() {})
	e.Park(p, 3)
	defer func() {
		if recover() == nil {
			t.Error("Park on a parked pend did not panic")
		}
	}()
	e.Park(p, 4)
}

// TestParkedPendIsPending: a parked pend is a queued event to every probe —
// Pending, NextEventTime, Step — and firing it frees it to be parked again,
// from its own dispatch or from outside.
func TestParkedPendIsPending(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedWheel, SchedHeap} {
		e := New()
		e.SetScheduler(kind)
		var fired []Time
		var p *Pend
		p = NewPend(func() {
			fired = append(fired, e.Now())
			if len(fired) == 1 {
				e.Park(p, e.Now()+2) // the chain: re-park from the dispatch
			}
		})
		e.At(2, func() {})
		e.Park(p, 5)
		if e.Pending() != 2 {
			t.Fatalf("%v: pending = %d with an event and a parked pend, want 2", kind, e.Pending())
		}
		e.Step()
		if next, ok := e.NextEventTime(); !ok || next != 5 || e.Pending() != 1 {
			t.Fatalf("%v: after one step next = %d, %v with %d pending, want the pend at 5", kind, next, ok, e.Pending())
		}
		e.Run()
		e.Park(p, e.Now()+1)
		e.Run()
		if fmt.Sprint(fired) != "[5 7 8]" || e.Pending() != 0 {
			t.Fatalf("%v: pend fired at %v with %d pending, want [5 7 8] and none", kind, fired, e.Pending())
		}
		if e.Processed() != 4 || e.Inlined() != 3 {
			t.Fatalf("%v: processed %d, inlined %d; want 4 and 3", kind, e.Processed(), e.Inlined())
		}
	}
}

// TestRecycleKeepsParkedPendEvent: an engine recycled with a pend still
// parked hands its free list and buckets on, but never the pend's event,
// which belongs to the pend's owner.
func TestRecycleKeepsParkedPendEvent(t *testing.T) {
	e := New()
	for i := 0; i < 16; i++ {
		e.At(Time(i), func() {})
	}
	e.RunUntil(7) // fill the free list with fired events
	p := NewPend(func() { t.Error("a recycled engine's pend fired") })
	e.Park(p, 20)
	e.Recycle()

	e2 := New()
	var refs []EventRef
	for i := 0; i < 64; i++ {
		refs = append(refs, e2.At(Time(i%4), func() {
			refs = append(refs, e2.After(1, func() {}))
		}))
	}
	e2.Run()
	for _, r := range refs {
		if r.ev == &p.ev {
			t.Fatal("a recycled engine's parked pend event was reused")
		}
	}
}
