package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

// The free list must hand a fired event's object back out for reuse: in
// steady state the engine allocates no new Events.
func TestPoolRecyclesFiredEvents(t *testing.T) {
	e := New()
	e.At(1, func() {})
	e.Run()
	if len(e.free) != 1 {
		t.Fatalf("free list has %d events after one run, want 1", len(e.free))
	}
	first := e.free[0]
	ref := e.At(2, func() {})
	if ref.ev != first {
		t.Fatal("second schedule did not reuse the pooled event")
	}
	if len(e.free) != 0 {
		t.Fatal("pooled event not removed from free list on reuse")
	}
}

// Cancelled events are recycled too, and a cancelled incarnation can be
// rescheduled (a fresh incarnation on the same object) without confusion.
func TestPoolCancelThenReschedule(t *testing.T) {
	e := New()
	firstRan, secondRan := false, false
	ref := e.At(5, func() { firstRan = true })
	e.Cancel(ref)
	if ref.Scheduled() {
		t.Fatal("cancelled handle reports scheduled")
	}
	ref2 := e.At(5, func() { secondRan = true })
	if ref2.ev != ref.ev {
		t.Fatal("reschedule after cancel did not reuse the pooled event")
	}
	if ref.Scheduled() {
		t.Fatal("stale handle aliases the rescheduled incarnation")
	}
	if !ref2.Scheduled() {
		t.Fatal("fresh incarnation not scheduled")
	}
	// Cancelling the stale handle must not disturb the live incarnation.
	e.Cancel(ref)
	e.Run()
	if firstRan {
		t.Fatal("cancelled incarnation ran")
	}
	if !secondRan {
		t.Fatal("rescheduled incarnation did not run")
	}
}

// A recycled *Event must not report Scheduled() for its old incarnation:
// generation checking keeps handles from aliasing across reuse.
func TestPoolRecycledEventAliasing(t *testing.T) {
	e := New()
	old := e.At(1, func() {})
	e.Run() // fires and recycles the event
	if old.Scheduled() {
		t.Fatal("fired handle reports scheduled")
	}
	fresh := e.At(10, func() {})
	if fresh.ev != old.ev {
		t.Fatal("expected the pool to reuse the event object")
	}
	if old.Scheduled() {
		t.Fatal("old incarnation reports scheduled after its object was recycled")
	}
	if _, ok := old.Time(); ok {
		t.Fatal("stale handle Time() reports ok")
	}
	if got, ok := fresh.Time(); !ok || got != 10 {
		t.Fatalf("fresh handle Time() = %d, %v, want 10, true", got, ok)
	}
	// Cancelling through the stale handle must not cancel the new event.
	e.Cancel(old)
	if !fresh.Scheduled() {
		t.Fatal("stale-handle Cancel removed a live incarnation")
	}
}

// An engine built on a recycled engine's memory — its grown buckets and its
// event free list — fires a schedule exactly as a fresh engine does, even
// when the recycled engine was dropped with events still queued in the ring
// and in the overflow tier. A second Recycle puts nothing back.
func TestRecycledEngineMatchesFresh(t *testing.T) {
	t.Cleanup(func() {
		for memPool.Get() != nil { // leave the pool empty for later tests
		}
	})
	run := func(e *Engine) []int {
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			e.At(Time(i*37%61), func() { order = append(order, i) })
		}
		e.At(3*wheelSpan, func() { order = append(order, -1) })
		e.Run()
		return order
	}
	want := run(New())

	dirty := New()
	for i := 0; i < 500; i++ {
		dirty.At(Time(i%20), func() {})
		dirty.At(Time(i%9)+2*wheelSpan, func() {})
	}
	dirty.RunUntil(10)
	buckets := &dirty.wh.buckets[0]
	dirty.Recycle()
	dirty.Recycle()

	e := New()
	if &e.wh.buckets[0] == buckets { // the pool may drop a put under the race detector
		if len(e.free) == 0 {
			t.Error("recycled engine came without its event free list")
		}
		if cap(e.wh.buckets[15].evs) <= 8 {
			t.Error("recycled bucket lost the capacity it grew to")
		}
		if other := New(); &other.wh.buckets[0] == buckets {
			t.Fatal("a second Recycle handed the same buckets to two engines")
		}
	}
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("engine built on recycled memory starts with events pending")
	}
	if got := run(e); !slices.Equal(got, want) {
		t.Fatalf("recycled engine fired %v, fresh engine %v", got, want)
	}
}

// AtHandler dispatches through the Handler interface with the argument the
// caller supplied, at the scheduled time.
type recordingHandler struct {
	times []Time
	args  []any
	eng   *Engine
}

func (h *recordingHandler) OnEvent(arg any) {
	h.times = append(h.times, h.eng.Now())
	h.args = append(h.args, arg)
}

func TestAtHandlerDispatch(t *testing.T) {
	e := New()
	h := &recordingHandler{eng: e}
	x, y := new(int), new(int)
	e.AtHandler(20, h, y)
	e.AtHandler(10, h, x)
	e.At(15, func() { e.AfterHandler(5, h, nil) })
	e.Run()
	if len(h.times) != 3 || h.times[0] != 10 || h.times[1] != 20 || h.times[2] != 20 {
		t.Fatalf("handler fired at %v, want [10 20 20]", h.times)
	}
	if h.args[0] != x || h.args[1] != y || h.args[2] != nil {
		t.Fatal("handler args delivered out of order")
	}
}

func TestAfterHandlerNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative AfterHandler delay did not panic")
		}
	}()
	e.AfterHandler(-1, &recordingHandler{eng: e}, nil)
}

// Property: pooling must not perturb execution order — the same schedule
// (including interleaved cancellations) runs identically with the pool on
// and off.
func TestPoolDeterminismProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		run := func(pool bool) []int {
			e := New()
			e.SetPooling(pool)
			var order []int
			refs := make([]EventRef, 0, len(raw))
			for i, d := range raw {
				i := i
				refs = append(refs, e.At(Time(d), func() { order = append(order, i) }))
			}
			// Cancel every third event, then reschedule half of those.
			for i := 2; i < len(refs); i += 3 {
				e.Cancel(refs[i])
				if i%2 == 0 {
					i := i
					e.At(Time(raw[i]), func() { order = append(order, 1000+i) })
				}
			}
			e.Run()
			return order
		}
		a, b := run(true), run(false)
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

// Steady-state scheduling through the pool plus AtHandler allocates nothing.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := New()
	h := &recordingHandler{eng: e}
	// Warm the pool.
	e.AtHandler(1, h, nil)
	e.Run()
	h.times, h.args = nil, nil
	allocs := testing.AllocsPerRun(100, func() {
		e.AtHandler(e.Now()+1, h, nil)
		e.Step()
	})
	// recordingHandler itself appends to slices; tolerate its amortized
	// growth but nothing per-event beyond it.
	if allocs > 1 {
		t.Fatalf("steady-state schedule+step allocates %.1f objects/op", allocs)
	}
}

func BenchmarkEngineAtHandler(b *testing.B) {
	e := New()
	b.ReportAllocs()
	nop := nopHandler{}
	for i := 0; i < b.N; i++ {
		e.AtHandler(e.Now(), nop, nil)
		e.Step()
	}
}

type nopHandler struct{}

func (nopHandler) OnEvent(any) {}

func BenchmarkEngineAtClosure(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(e.Now(), func() {})
		e.Step()
	}
}
