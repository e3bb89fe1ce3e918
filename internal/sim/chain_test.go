package sim

import (
	"fmt"
	"testing"
)

// ticker is a chain owner with one step every `every` cycles. It logs the
// clock at each step StepChain runs and counts every settled step; with
// closed set, SkipChain settles every step due by the limit at once.
type ticker struct {
	e      *Engine
	c      Chain
	every  Time
	closed bool
	steps  uint64
	clocks []Time
	next   Time
}

func newTicker(e *Engine, every Time, closed bool) *ticker {
	return &ticker{e: e, every: every, closed: closed}
}

func (tk *ticker) takeOff(at Time) {
	tk.next = at
	tk.e.TakeOff(&tk.c, tk, at)
}

func (tk *ticker) StepChain() Time {
	if tk.e.Now() != tk.next {
		panic(fmt.Sprintf("step due at %d run with the clock at %d", tk.next, tk.e.Now()))
	}
	tk.clocks = append(tk.clocks, tk.e.Now())
	tk.steps++
	tk.next += tk.every
	return tk.next
}

func (tk *ticker) SkipChain(at, limit Time) (uint64, Time, Time) {
	if !tk.closed {
		return 0, 0, 0
	}
	n := uint64((limit-at)/tk.every) + 1
	tk.steps += n
	tk.next = at + Time(n)*tk.every
	return n, tk.next - tk.every, tk.next
}

// chainCases runs fn on a fresh engine with the ticker's closed form off
// and on.
func chainCases(fn func(name string, e *Engine, closed bool)) {
	for _, closed := range []bool{false, true} {
		fn(fmt.Sprintf("closed=%v", closed), New(), closed)
	}
}

// TestChainSettlesAtWake: an event that wakes an off-queue chain sees
// every step due before it settled, each with the clock at its own
// deadline, and the clock back at its own cycle; the step it then queues
// fires after it. Processed and Inlined count every settled step.
func TestChainSettlesAtWake(t *testing.T) {
	chainCases(func(name string, e *Engine, closed bool) {
		tk := newTicker(e, 3, closed)
		tk.takeOff(5)
		var order []string
		e.At(50, func() {
			at := e.Rejoin(&tk.c, e.Now()-1)
			if e.Now() != 50 || at != 50 || tk.steps != 15 {
				t.Errorf("%s: after the wake clock=%d next=%d steps=%d, want 50, 50, 15", name, e.Now(), at, tk.steps)
			}
			e.At(at, func() { order = append(order, "step") })
			order = append(order, "event")
		})
		e.Run()
		if fmt.Sprint(order) != "[event step]" {
			t.Errorf("%s: fire order %v, want the event before the step it re-queued", name, order)
		}
		if !closed && fmt.Sprint(tk.clocks) != "[5 8 11 14 17 20 23 26 29 32 35 38 41 44 47]" {
			t.Errorf("%s: steps ran at %v", name, tk.clocks)
		}
		if e.Processed() != 17 || e.Inlined() != 15 || tk.c.Off() {
			t.Errorf("%s: processed=%d inlined=%d off=%v, want 17, 15, false", name, e.Processed(), e.Inlined(), tk.c.Off())
		}
	})
}

// TestChainSettlesThroughRunLimit: a run that stops at its limit settles
// an off-queue chain through the limit, so the clock, Processed, Pending
// and NextEventTime read as they would with every step queued, and
// Inlined counts the settled steps.
func TestChainSettlesThroughRunLimit(t *testing.T) {
	chainCases(func(name string, e *Engine, closed bool) {
		tk := newTicker(e, 3, closed)
		tk.takeOff(5)
		e.At(100, func() {})
		if end := e.RunUntil(20); end != 20 {
			t.Errorf("%s: RunUntil(20) ended at %d, want 20 (the step at 20)", name, end)
		}
		if e.Processed() != 6 || e.Inlined() != 6 || e.Pending() != 2 {
			t.Errorf("%s: processed=%d inlined=%d pending=%d, want 6, 6, 2", name, e.Processed(), e.Inlined(), e.Pending())
		}
		if next, ok := e.NextEventTime(); !ok || next != 23 {
			t.Errorf("%s: NextEventTime = %d, %v, want 23 (the chain's next step)", name, next, ok)
		}
		if end := e.RunUntil(22); end != 20 || e.Processed() != 6 {
			t.Errorf("%s: RunUntil(22) ended at %d with %d processed, want 20 and 6", name, end, e.Processed())
		}
		if end := e.RunUntil(23); end != 23 || e.Processed() != 7 {
			t.Errorf("%s: RunUntil(23) ended at %d with %d processed, want 23 and 7", name, end, e.Processed())
		}
	})
}

// TestChainSettlesAfterAbort: a run aborted in cycle 30 settles the chain
// through cycle 30, the cycle the abort lets finish, and no later run
// settles anything.
func TestChainSettlesAfterAbort(t *testing.T) {
	chainCases(func(name string, e *Engine, closed bool) {
		tk := newTicker(e, 5, closed)
		tk.takeOff(5)
		e.At(30, e.Abort)
		if end := e.RunUntil(1000); end != 30 {
			t.Errorf("%s: aborted run ended at %d, want 30", name, end)
		}
		if tk.steps != 6 || e.Processed() != 7 || e.Inlined() != 6 {
			t.Errorf("%s: %d steps settled, %d processed, %d inlined after the abort, want 6 (5..30), 7 and 6",
				name, tk.steps, e.Processed(), e.Inlined())
		}
		e.RunUntil(2000)
		if tk.steps != 6 || e.Now() != 30 {
			t.Errorf("%s: a run after the abort settled to step %d, clock %d", name, tk.steps, e.Now())
		}
		if next, ok := e.NextEventTime(); !ok || next != 35 || e.Pending() != 1 {
			t.Errorf("%s: NextEventTime = %d, %v and Pending = %d after the abort, want 35, true, 1", name, next, ok, e.Pending())
		}
	})
}

// TestChainUnlimitedRunSettlesNothing: a run with no limit cannot settle a
// chain nothing wakes; it returns when the queue drains with the chain
// still off the queue and pending.
func TestChainUnlimitedRunSettlesNothing(t *testing.T) {
	e := New()
	tk := newTicker(e, 4, true)
	tk.takeOff(2)
	e.At(9, func() {})
	if end := e.Run(); end != 9 {
		t.Errorf("Run ended at %d, want 9 (the last queued event)", end)
	}
	if tk.steps != 0 || !tk.c.Off() || e.Pending() != 1 || e.Processed() != 1 {
		t.Errorf("steps=%d off=%v pending=%d processed=%d, want 0, true, 1, 1", tk.steps, tk.c.Off(), e.Pending(), e.Processed())
	}
	if at := e.Rejoin(&tk.c, 1); at != 2 || e.Pending() != 0 {
		t.Errorf("Rejoin before the first step returned %d with %d pending, want 2 and 0", at, e.Pending())
	}
}

// TestTakeOffPanics: a chain cannot leave the queue twice, or before now.
func TestTakeOffPanics(t *testing.T) {
	twice := New()
	late := New()
	late.At(5, func() {})
	late.Run()
	for name, fn := range map[string]func(){
		"twice": func() {
			tk := newTicker(twice, 1, false)
			tk.takeOff(0)
			tk.takeOff(1)
		},
		"before now": func() { newTicker(late, 1, false).takeOff(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: TakeOff did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestRejoinKeepsOtherChains: removing one of several off-queue chains
// leaves the rest off the queue and counted.
func TestRejoinKeepsOtherChains(t *testing.T) {
	e := New()
	a, b, c := newTicker(e, 2, false), newTicker(e, 3, false), newTicker(e, 5, false)
	a.takeOff(10)
	b.takeOff(4)
	c.takeOff(7)
	e.Rejoin(&a.c, 0)
	if e.Pending() != 2 || a.c.Off() || !b.c.Off() || !c.c.Off() {
		t.Fatalf("after one Rejoin: pending=%d offs=%v %v %v", e.Pending(), a.c.Off(), b.c.Off(), c.c.Off())
	}
	if next, _ := e.NextEventTime(); next != 4 {
		t.Errorf("NextEventTime = %d, want 4", next)
	}
	e.Rejoin(&b.c, 0)
	if next, _ := e.NextEventTime(); next != 7 || e.Pending() != 1 {
		t.Errorf("NextEventTime = %d with %d pending, want 7 and 1", next, e.Pending())
	}
}

// TestWheelGrowClearsLeftSlots: a bucket that outgrows its slots leaves
// none of its event pointers behind, so the carve shared by every bucket
// cannot keep a finished run's events reachable.
func TestWheelGrowClearsLeftSlots(t *testing.T) {
	var w wheel
	w.init()
	b := &w.buckets[3]
	old := b.evs[:cap(b.evs)]
	for i := 0; i <= len(old); i++ {
		w.ringInsert(&Event{at: 3, seq: uint64(i)})
	}
	for i, ev := range old {
		if ev != nil {
			t.Fatalf("slot %d of the outgrown array still holds an event", i)
		}
	}
	if len(b.evs) != len(old)+1 {
		t.Fatalf("bucket holds %d events, want %d", len(b.evs), len(old)+1)
	}
}
