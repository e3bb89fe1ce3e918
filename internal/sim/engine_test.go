package sim

import (
	"fmt"
	"strings"
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

// TestCycleSeqExecutionOrder: same-deadline events run in the order they
// were scheduled, whatever cycle scheduled them: an event queued at cycle 3
// for cycle 10 runs after the five queued at cycle 0.
func TestCycleSeqExecutionOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 5; i++ {
		e.At(10, func() { got = append(got, i) })
	}
	e.At(3, func() { e.At(10, func() { got = append(got, 5) }) })
	e.Run()
	if fmt.Sprint(got) != "[0 1 2 3 4 5]" {
		t.Fatalf("order %v", got)
	}
}

type fnHandler func(arg any)

func (f fnHandler) OnEvent(arg any) { f(arg) }

// TestAtHandlerSeqInterleaving: events the end-of-cycle hook schedules
// draw keys after every event allocated during the hook's cycle, arming
// it included, and before any allocated later. Same-deadline events
// therefore run by allocation cycle, the hook's after the cycle's own, and
// then by scheduling order: the order the network's flush relies on for
// the deliveries it inserts.
func TestAtHandlerSeqInterleaving(t *testing.T) {
	e := New()
	var got, flush []string
	mark := func(s string) Handler { return fnHandler(func(any) { got = append(got, s) }) }
	e.SetCycleHook(func() {
		for _, s := range flush {
			e.AtHandler(10, mark(s), nil)
		}
		flush = flush[:0]
	})
	e.At(0, func() {
		flush = append(flush, "flush-c0")
		e.ArmCycleHook()
		e.AtHandler(10, mark("exec-c0-a"), nil)
	})
	e.At(0, func() { e.AtHandler(10, mark("exec-c0-b"), nil) })
	e.At(4, func() {
		flush = append(flush, "flush-c4")
		e.ArmCycleHook()
	})
	e.At(4, func() { e.AtHandler(10, mark("exec-c4"), nil) })
	e.At(5, func() { e.AtHandler(10, mark("exec-c5"), nil) })
	e.Run()
	want := "[exec-c0-a exec-c0-b flush-c0 exec-c4 flush-c4 exec-c5]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order %v, want %s", got, want)
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
	h := &recordingHandler{eng: e}
	e.At(10, func() { e.AfterHandler(7, h, nil) })
	e.Run()
	if len(h.times) != 1 || h.times[0] != 17 {
		t.Fatalf("AfterHandler fired at %v, want [17]", h.times)
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

// TestEngineNegativeDelayPanics: a negative relative delay is reported as
// such, not as the past deadline it would name.
func TestEngineNegativeDelayPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), "negative delay") {
				t.Errorf("negative delay panicked with %v, want a negative-delay panic", r)
			}
		}()
		e.AfterHandler(-1, &recordingHandler{eng: e}, nil)
	})
	e.Run()
}

func TestNextEventTime(t *testing.T) {
	e := New()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reported a next event")
	}
	e.At(7, func() {})
	e.At(3, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 3 {
		t.Fatalf("next = %d, %v; want 3, true", at, ok)
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
// hook and returns its execution log. Cycle 1 holds two events and an
// event the first schedules into the same cycle; the first event arms
// the hook, and the hook schedules an event two cycles out. Cycle 5's event
// arms it again as the run's last action, so a drained RunUntil must run
// the hook before it returns.
func hookTrace(t *testing.T) ([]string, uint64) {
	t.Helper()
	e := New()
	var log []string
	add := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	e.SetCycleHook(func() {
		add("hook")
		if e.Now() == 1 {
			e.At(e.Now()+2, func() { add("fromhook") })
		}
	})
	e.At(1, func() {
		add("a")
		e.ArmCycleHook()
		e.At(1, func() { add("child") })
		e.ArmCycleHook() // arming twice in a cycle still runs the hook once
	})
	e.At(1, func() { add("b") })
	e.At(5, func() {
		add("c")
		e.ArmCycleHook()
	})
	if end := e.RunUntil(4); end != 3 {
		t.Fatalf("RunUntil(4) ended at %d, want 3", end)
	}
	add("paused")
	e.Run()
	add("drained")
	return log, e.Processed()
}

// TestCycleHook: the end-of-cycle hook runs once per armed cycle, after
// every event of that cycle (including events scheduled into the cycle),
// before anything later and before a drained run returns. What it
// schedules runs in the same run, and Processed does not count it.
func TestCycleHook(t *testing.T) {
	want := []string{"a@1", "b@1", "child@1", "hook@1", "fromhook@3",
		"paused@3", "c@5", "hook@5", "drained@5"}
	got, processed := hookTrace(t)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("trace %v, want %v", got, want)
	}
	if processed != 5 {
		t.Errorf("processed %d, want 5 (the hook is not an event)", processed)
	}
}

// TestCycleHookStep: stepping a run one cycle at a time with RunUntil runs
// an armed hook once, at the end of its cycle, before the RunUntil whose
// limit is that cycle returns, and never counts it as an event.
func TestCycleHookStep(t *testing.T) {
	e := New()
	var log []string
	e.SetCycleHook(func() { log = append(log, fmt.Sprintf("hook@%d", e.Now())) })
	e.At(2, func() { log = append(log, "x@2"); e.ArmCycleHook() })
	e.At(2, func() { log = append(log, "y@2") })
	e.At(4, func() { log = append(log, "z@4"); e.ArmCycleHook() })
	for limit := Time(0); limit <= 6; limit++ {
		e.RunUntil(limit)
		log = append(log, fmt.Sprintf("|%d", limit))
	}
	want := "[|0 |1 x@2 y@2 hook@2 |2 |3 z@4 hook@4 |4 |5 |6]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("stepped trace %s, want %s", got, want)
	}
	if e.Processed() != 3 {
		t.Errorf("processed %d, want 3", e.Processed())
	}
}
