package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// --- scheduler equivalence harness ---
//
// Both schedulers implement the same contract: events fire in exactly
// ascending (deadline, sequence) order, and an armed end-of-cycle hook runs
// at the same point of that order. The harness interprets a byte stream as
// a schedule/run/arm/continue program, replays it through an engine, and
// records every firing and hook run; replaying the same stream through the
// wheel and the heap, with pooling on and off, must produce identical logs,
// clocks, and counters. The fuzz target and the seeded randomized test
// below both drive this harness.

type fireRec struct {
	id int
	at Time
}

type streamDriver struct {
	e      *Engine
	fires  []fireRec
	nextID int
	hooks  int  // hook runs so far; logged as fires with negative ids
	hookAt Time // delay of the event the next hook run schedules

	conts [3]*drvCont
}

// contID is the log id of driver continuation k's firings, clear of the
// event ids.
func contID(k int) int { return 1<<30 + k }

// drvCont is one of the driver's continuations: a chain of AtHandler
// events, each scheduled by the one before it from its own dispatch, as a
// processor's pipeline steps are.
type drvCont struct {
	d      *streamDriver
	id     int
	queued bool
	chain  int // re-schedules still to make from its own dispatch
}

// file schedules the continuation delay cycles out.
func (dc *drvCont) file(delay Time) {
	dc.queued = true
	dc.d.e.AtHandler(dc.d.e.Now()+delay, dc, nil)
}

// OnEvent logs the firing and, while the chain lasts, re-schedules from
// the dispatch itself — three cycles out, then into the cycle being
// drained.
func (dc *drvCont) OnEvent(any) {
	dc.queued = false
	dc.d.fires = append(dc.d.fires, fireRec{id: dc.id, at: dc.d.e.Now()})
	if dc.chain > 0 {
		dc.chain--
		dc.file(3 * Time(dc.chain))
	}
}

// cont files driver continuation k, when it is not already queued: near
// the clock, or with bit 6 of arg set just short of or beyond the wheel
// span, and with bit 7 set re-scheduling twice from its own dispatch.
func (d *streamDriver) cont(k int, arg byte) {
	dc := d.conts[k]
	if dc.queued {
		return
	}
	delay := Time(arg & 31)
	if arg&0x40 != 0 {
		delay = wheelSpan - 8 + Time(arg&15)
	}
	if arg&0x80 != 0 {
		dc.chain = 2
	}
	dc.file(delay)
}

func (d *streamDriver) schedule(delay Time) {
	id := d.nextID
	d.nextID++
	d.e.At(d.e.Now()+delay, func() {
		d.fires = append(d.fires, fireRec{id: id, at: d.e.Now()})
	})
}

// scheduleChained schedules an event whose callback schedules a child —
// exercising mid-drain insertion into the current and nearby buckets.
func (d *streamDriver) scheduleChained(delay, childDelay Time) {
	id := d.nextID
	d.nextID += 2
	childID := id + 1
	d.e.At(d.e.Now()+delay, func() {
		d.fires = append(d.fires, fireRec{id: id, at: d.e.Now()})
		d.e.At(d.e.Now()+childDelay, func() {
			d.fires = append(d.fires, fireRec{id: childID, at: d.e.Now()})
		})
	})
}

// streamRun is what one replay of an op program observed.
type streamRun struct {
	fires     []fireRec
	now       Time
	processed uint64
	pending   string // Pending after every op and after the final drain
}

// Scheduler program ops: the opcode byte modulo schedOps selects one.
const (
	opNear     = iota // schedule near the clock: the ring hot path (two codes)
	_                 // (second code for opNear)
	opChained         // schedule an event that schedules a child
	opFar             // schedule beyond the wheel horizon: the overflow tier
	opRunShort        // run zero to two cycles past the clock
	opRun             // run up to 199 cycles past the clock
	opShort           // schedule up to 15 cycles past the clock
	opArm             // arm the end-of-cycle hook
	opCont            // file a driver continuation
	schedOps
)

// runSchedStream replays data as a scheduler op program and returns the
// firing log plus final engine state.
func runSchedStream(data []byte, kind SchedulerKind, pooled bool) streamRun {
	e := New()
	e.SetScheduler(kind)
	e.SetPooling(pooled)
	d := &streamDriver{e: e}
	for k := range d.conts {
		d.conts[k] = &drvCont{d: d, id: contID(k)}
	}
	e.SetCycleHook(func() {
		d.hooks++
		d.fires = append(d.fires, fireRec{id: -d.hooks, at: e.Now()})
		// Delay 0 schedules into the cycle the hook is closing, which must
		// then run before anything later.
		d.schedule(d.hookAt)
	})

	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	var pending []int
	for i < len(data) {
		op, arg := next(), next()
		switch op % schedOps {
		case opNear, opNear + 1:
			d.schedule(Time(arg & 63))
		case opChained:
			d.scheduleChained(Time(arg&31), Time(arg>>5))
		case opFar:
			d.schedule(900 + Time(arg)*29)
		case opRunShort:
			d.e.RunUntil(d.e.Now() + Time(arg%3))
		case opRun:
			d.e.RunUntil(d.e.Now() + Time(arg%200))
		case opShort:
			d.schedule(Time(arg & 15))
		case opArm:
			d.hookAt = Time(arg & 3)
			d.e.ArmCycleHook()
		case opCont:
			d.cont(int(arg)%len(d.conts), arg)
		}
		pending = append(pending, e.Pending())
	}
	e.Run()
	pending = append(pending, e.Pending())
	return streamRun{fires: d.fires, now: e.Now(), processed: e.Processed(), pending: fmt.Sprint(pending)}
}

// compareStreams replays data on the pooled wheel and checks that the heap
// and the unpooled wheel observe the same run.
func compareStreams(t *testing.T, label string, data []byte) {
	t.Helper()
	ref := runSchedStream(data, SchedWheel, true)
	for _, v := range []struct {
		name   string
		kind   SchedulerKind
		pooled bool
	}{
		{"heap", SchedHeap, true},
		{"unpooled wheel", SchedWheel, false},
	} {
		got := runSchedStream(data, v.kind, v.pooled)
		if got.now != ref.now || got.processed != ref.processed {
			t.Fatalf("%s: wheel (now=%d proc=%d) vs %s (now=%d proc=%d)",
				label, ref.now, ref.processed, v.name, got.now, got.processed)
		}
		if got.pending != ref.pending {
			t.Fatalf("%s: Pending after each op: wheel %s, %s %s", label, ref.pending, v.name, got.pending)
		}
		if len(got.fires) != len(ref.fires) {
			t.Fatalf("%s: wheel fired %d events, %s fired %d", label, len(ref.fires), v.name, len(got.fires))
		}
		for i := range ref.fires {
			if ref.fires[i] != got.fires[i] {
				t.Fatalf("%s: firing %d differs: wheel %+v, %s %+v", label, i, ref.fires[i], v.name, got.fires[i])
			}
		}
	}
}

// TestSchedulerEquivalenceRandom replays seeded random op streams through
// both schedulers and demands identical (at, seq) fire order — the randomized counterpart of FuzzSchedulerEquivalence.
func TestSchedulerEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1f1e33))
	for round := 0; round < 200; round++ {
		n := rng.Intn(400) + 2
		data := make([]byte, n)
		rng.Read(data)
		compareStreams(t, "random", data)
	}
}

// FuzzSchedulerEquivalence is the fuzz form of the cross-check: any byte
// stream, interpreted as a scheduler op program, must fire identically
// through the wheel and the heap, pooled or not. Between them the seeds
// use every op.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{opNear, 10, opFar, 200, opRunShort, 2, opRun, 100})
	f.Add([]byte{opChained, 0xff, opShort, 3, opRun, 100, opNear + 1, 63})
	f.Add([]byte{opFar, 0xff, opFar, 0x01, opNear, 0, opRunShort, 0, opRun, 0xff})
	f.Add([]byte{opNear, 5, opArm, 0, opRunShort, 1, opArm, 2, opChained, 0x21, opRun, 9, opArm, 1})
	f.Add([]byte{opCont, 0x83, opNear, 3, opCont, 0x45, opCont, 0xc4, opNear + 1, 3, opRunShort, 2,
		opRun, 40, opCont, 0x80, opArm, 0, opRun, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		compareStreams(t, "fuzz", data)
	})
}

// --- wheel-specific unit tests ---

func TestWheelOverflowPromotion(t *testing.T) {
	e := New()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.At(5, rec)
	e.At(2000, rec)        // beyond the 1024-cycle horizon: overflow tier
	e.At(50_000, rec)      // deep overflow, promoted across many epochs
	e.At(wheelSpan+5, rec) // same bucket index as cycle 5, next epoch
	if end := e.Run(); end != 50_000 {
		t.Fatalf("final time = %d, want 50000", end)
	}
	want := []Time{5, wheelSpan + 5, 2000, 50_000}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestWheelDeadCycleSkip(t *testing.T) {
	e := New()
	e.At(3, func() {})
	e.At(1<<40, func() {})
	if next, ok := e.NextEventTime(); !ok || next != 3 {
		t.Fatalf("NextEventTime = %d, %v, want 3, true", next, ok)
	}
	e.RunUntil(3)
	// The clock must jump straight across ~10^12 empty cycles.
	if next, ok := e.NextEventTime(); !ok || next != 1<<40 {
		t.Fatalf("NextEventTime after cycle 3 = %d, %v, want %d, true", next, ok, Time(1)<<40)
	}
	if end := e.Run(); end != 1<<40 {
		t.Fatalf("final time = %d, want %d", end, Time(1)<<40)
	}
	if e.Processed() != 2 {
		t.Fatalf("processed = %d, want 2", e.Processed())
	}
}

func TestSetSchedulerPanicsWithPending(t *testing.T) {
	e := New()
	e.At(5, func() {})
	defer func() {
		if recover() == nil {
			t.Error("SetScheduler with pending events did not panic")
		}
	}()
	e.SetScheduler(SchedHeap)
}

// TestHeapSchedulerStillWorks drives the canonical ordering tests through
// the heap fallback so the oracle itself keeps its own coverage.
func TestHeapSchedulerStillWorks(t *testing.T) {
	e := New()
	e.SetScheduler(SchedHeap)
	if e.Scheduler() != SchedHeap {
		t.Fatal("Scheduler() does not report the heap")
	}
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(10-i), func() { order = append(order, i) })
	}
	e.Run()
	want := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0} // ascending deadline = descending i
	if len(order) != len(want) {
		t.Fatalf("heap fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("heap fired %v, want %v", order, want)
		}
	}
}

// TestWheelSteadyStateDoesNotAllocate: the ring hot path must stay
// allocation-free once bucket slices are warm, like the heap before it.
func TestWheelSteadyStateDoesNotAllocate(t *testing.T) {
	e := New()
	nop := nopHandler{}
	// Warm every ring bucket so steady state measures reuse, not first-touch
	// slice growth.
	for i := 0; i < int(wheelSpan); i++ {
		e.AtHandler(Time(i), nop, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		e.AtHandler(e.Now()+3, nop, nil)
		e.AtHandler(e.Now()+1, nop, nil)
		e.RunUntil(e.Now() + 3)
	})
	if allocs > 0 {
		t.Fatalf("steady-state wheel scheduling allocates %.1f objects/op", allocs)
	}
}
