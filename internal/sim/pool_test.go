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
	e.At(2, func() {})
	if len(e.free) != 0 {
		t.Fatal("pooled event not removed from free list on reuse")
	}
	if b := e.wh.buckets[2]; len(b.evs) != 1 || b.evs[0] != first {
		t.Fatal("second schedule did not reuse the pooled event")
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
// runs identically with the pool on and off, including events scheduled
// from callbacks into the objects their own firings just freed.
func TestPoolDeterminismProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		run := func(pool bool) []int {
			e := New()
			e.SetPooling(pool)
			var order []int
			for i, d := range raw {
				i, d := i, Time(d)
				e.At(d, func() {
					order = append(order, i)
					// Every third event schedules a child, half of them into
					// the cycle being drained.
					if i%3 == 2 {
						e.At(e.Now()+d%2*Time(i%7), func() { order = append(order, 1000+i) })
					}
				})
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
		e.RunUntil(e.Now() + 1)
	})
	// recordingHandler itself appends to slices; tolerate its amortized
	// growth but nothing per-event beyond it.
	if allocs > 1 {
		t.Fatalf("steady-state schedule+fire allocates %.1f objects/op", allocs)
	}
}

func BenchmarkEngineAtHandler(b *testing.B) {
	e := New()
	b.ReportAllocs()
	nop := nopHandler{}
	for i := 0; i < b.N; i++ {
		e.AtHandler(e.Now(), nop, nil)
		e.RunUntil(e.Now())
	}
}

type nopHandler struct{}

func (nopHandler) OnEvent(any) {}

func BenchmarkEngineAtClosure(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(e.Now(), func() {})
		e.RunUntil(e.Now())
	}
}
