package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// --- scheduler equivalence harness ---
//
// Both schedulers implement the same contract: events fire in exactly
// ascending (deadline, sequence) order, parked pends included, and an armed
// end-of-cycle hook runs at the same point of that order. The harness
// interprets a byte stream as a schedule/cancel/step/drain/arm/park
// program, replays it through an engine, and records every firing and hook
// run; replaying the same stream through the wheel and the heap (and with
// pooling on and off, and with plain and cycle-tagged sequencing) must
// produce identical logs, clocks, and counters. So must its twin, the same
// program with every Park replaced by an AtHandler of the same callback: a
// pend fires exactly where that event would. The fuzz target and the
// seeded randomized test below both drive this harness.

type fireRec struct {
	id int
	at Time
}

type idHandler struct {
	drv *streamDriver
}

func (h *idHandler) OnEvent(arg any) {
	h.drv.fires = append(h.drv.fires, fireRec{id: arg.(int), at: h.drv.e.Now()})
}

type streamDriver struct {
	e      *Engine
	fires  []fireRec
	refs   []EventRef
	nextID int
	ctr    uint32
	hooks  int  // hook runs so far; logged as fires with negative ids
	hookAt Time // delay of the event the next hook run schedules

	pends     [3]*drvPend
	twin      bool // schedule every park as an AtHandler event instead
	pendFires int  // pend (or twin event) dispatches so far
}

// pendID is the log id of driver pend k's firings, clear of the event ids.
func pendID(k int) int { return 1<<30 + k }

// drvPend is one of the driver's continuations: a Pend parked on the
// engine, or in twin mode the AtHandler event carrying the same callback.
type drvPend struct {
	d      *streamDriver
	id     int
	p      *Pend
	parked bool
	chain  int // re-parks still to file from its own dispatch
}

// file parks the continuation delay cycles out.
func (dp *drvPend) file(delay Time) {
	dp.parked = true
	t := dp.d.e.Now() + delay
	if dp.d.twin {
		dp.d.e.AtHandler(t, dp, nil)
	} else {
		dp.d.e.Park(dp.p, t)
	}
}

func (dp *drvPend) OnEvent(any) { dp.run() }

// run is the continuation: log the firing and, while the chain lasts,
// re-park from the dispatch itself — three cycles out, then into the
// cycle being drained.
func (dp *drvPend) run() {
	dp.parked = false
	dp.d.pendFires++
	dp.d.fires = append(dp.d.fires, fireRec{id: dp.id, at: dp.d.e.Now()})
	if dp.chain > 0 {
		dp.chain--
		dp.file(3 * Time(dp.chain))
	}
}

// park files driver pend k, when it is idle: near the clock, or with bit 6
// of arg set just short of or beyond the wheel span, and with bit 7 set
// re-parking twice from its own dispatch.
func (d *streamDriver) park(k int, arg byte) {
	dp := d.pends[k]
	if dp.parked {
		return
	}
	delay := Time(arg & 31)
	if arg&0x40 != 0 {
		delay = wheelSpan - 8 + Time(arg&15)
	}
	if arg&0x80 != 0 {
		dp.chain = 2
	}
	dp.file(delay)
}

func (d *streamDriver) schedule(delay Time) {
	id := d.nextID
	d.nextID++
	d.refs = append(d.refs, d.e.At(d.e.Now()+delay, func() {
		d.fires = append(d.fires, fireRec{id: id, at: d.e.Now()})
	}))
}

// scheduleChained schedules an event whose callback schedules a child —
// exercising mid-drain insertion into the current and nearby buckets.
func (d *streamDriver) scheduleChained(delay, childDelay Time) {
	id := d.nextID
	d.nextID += 2
	childID := id + 1
	d.refs = append(d.refs, d.e.At(d.e.Now()+delay, func() {
		d.fires = append(d.fires, fireRec{id: id, at: d.e.Now()})
		d.e.At(d.e.Now()+childDelay, func() {
			d.fires = append(d.fires, fireRec{id: childID, at: d.e.Now()})
		})
	}))
}

// streamRun is what one replay of an op program observed.
type streamRun struct {
	fires     []fireRec
	now       Time
	processed uint64
	pending   string // Pending after every op and after the final drain
	inlined   uint64
	pendFires int
}

// runSchedStream replays data as a scheduler op program and returns the
// firing log plus final engine state. twin schedules every park as an
// AtHandler event of the same callback.
func runSchedStream(data []byte, kind SchedulerKind, cycleSeq, pooled, twin bool) streamRun {
	e := New()
	e.SetScheduler(kind)
	e.SetCycleSeq(cycleSeq)
	e.SetPooling(pooled)
	d := &streamDriver{e: e, twin: twin}
	for k := range d.pends {
		dp := &drvPend{d: d, id: pendID(k)}
		dp.p = NewPend(dp.run)
		d.pends[k] = dp
	}
	h := &idHandler{drv: d}
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
		switch op % 10 {
		case 0, 1:
			d.schedule(Time(arg & 63)) // near future: the ring hot path
		case 2:
			d.scheduleChained(Time(arg&31), Time(arg>>5))
		case 3:
			// Far future: crosses the wheel horizon into the overflow tier.
			d.schedule(900 + Time(arg)*29)
		case 4:
			if len(d.refs) > 0 {
				// Cancel an arbitrary handle; stale handles are no-ops, so
				// this covers both live cancellation and double-cancel.
				d.e.Cancel(d.refs[int(arg)%len(d.refs)])
			}
		case 5:
			for k := 0; k < int(arg%3)+1; k++ {
				d.e.Step()
			}
		case 6:
			d.e.RunUntil(d.e.Now() + Time(arg%200))
		case 7:
			if cycleSeq {
				// Barrier-style insertion: an explicit flush-phase key whose
				// cycle tag may lag the clock (as a window barrier's send
				// cycle does), so it can land below keys already appended to
				// the target bucket and force the out-of-order sort path.
				// The monotone counter keeps every key unique; flush phase
				// keeps them disjoint from engine-assigned keys.
				id := d.nextID
				d.nextID++
				cyc := d.e.Now() - Time(arg&7)
				if cyc < 0 {
					cyc = 0
				}
				key := WindowSeq(cyc, true, d.ctr)
				d.ctr++
				d.e.AtHandlerSeq(d.e.Now()+Time(arg&63)+1, key, h, id)
			} else {
				d.schedule(Time(arg & 15))
			}
		case 8:
			d.hookAt = Time(arg & 3)
			d.e.ArmCycleHook()
		case 9:
			d.park(int(arg)%len(d.pends), arg)
		}
		pending = append(pending, e.Pending())
	}
	e.Run()
	pending = append(pending, e.Pending())
	return streamRun{fires: d.fires, now: e.Now(), processed: e.Processed(),
		pending: fmt.Sprint(pending), inlined: e.Inlined(), pendFires: d.pendFires}
}

// compareStreams replays data on the pooled wheel and checks that the
// heap, the unpooled wheel and the Park-free twin on both schedulers
// observe the same run, and that every pend dispatch counts as inlined.
func compareStreams(t *testing.T, label string, data []byte, cycleSeq bool) {
	t.Helper()
	ref := runSchedStream(data, SchedWheel, cycleSeq, true, false)
	if ref.inlined != uint64(ref.pendFires) {
		t.Fatalf("%s: wheel inlined %d, want its %d pend dispatches", label, ref.inlined, ref.pendFires)
	}
	for _, v := range []struct {
		name         string
		kind         SchedulerKind
		pooled, twin bool
	}{
		{"heap", SchedHeap, true, false},
		{"unpooled wheel", SchedWheel, false, false},
		{"twin wheel", SchedWheel, true, true},
		{"twin heap", SchedHeap, true, true},
	} {
		got := runSchedStream(data, v.kind, cycleSeq, v.pooled, v.twin)
		if got.now != ref.now || got.processed != ref.processed || got.pendFires != ref.pendFires {
			t.Fatalf("%s: wheel (now=%d proc=%d pends=%d) vs %s (now=%d proc=%d pends=%d)",
				label, ref.now, ref.processed, ref.pendFires, v.name, got.now, got.processed, got.pendFires)
		}
		if got.pending != ref.pending {
			t.Fatalf("%s: Pending after each op: wheel %s, %s %s", label, ref.pending, v.name, got.pending)
		}
		want := ref.inlined
		if v.twin {
			want = 0 // nothing parked: every dispatch is an ordinary event
		}
		if got.inlined != want {
			t.Fatalf("%s: %s inlined %d, want %d", label, v.name, got.inlined, want)
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
// both schedulers in both sequencing modes and demands identical (at, seq)
// fire order — the randomized counterpart of FuzzSchedulerEquivalence.
func TestSchedulerEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1f1e33))
	for round := 0; round < 200; round++ {
		n := rng.Intn(400) + 2
		data := make([]byte, n)
		rng.Read(data)
		compareStreams(t, "plain", data, false)
		compareStreams(t, "cycle-seq", data, true)
	}
}

// FuzzSchedulerEquivalence is the fuzz form of the cross-check: any byte
// stream, interpreted as a schedule/cancel/park program, must fire
// identically through the wheel and the heap, and with every Park replaced
// by the equivalent AtHandler.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 3, 200, 4, 0, 5, 2})
	f.Add([]byte{2, 0xff, 7, 3, 6, 100, 1, 63, 4, 1})
	f.Add([]byte{3, 0xff, 3, 0x01, 0, 0, 5, 0, 4, 2, 6, 0xff})
	f.Add([]byte{0, 5, 8, 0, 5, 1, 8, 2, 2, 0x21, 6, 9, 8, 1})
	f.Add([]byte{9, 0x83, 0, 3, 9, 0x45, 9, 0xc2, 1, 3, 5, 2, 9, 0x80, 8, 0, 6, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		compareStreams(t, "plain", data, false)
		compareStreams(t, "cycle-seq", data, true)
	})
}

// --- wheel-specific unit tests ---

func TestWheelOverflowPromotion(t *testing.T) {
	e := New()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.At(5, rec)
	e.At(2000, rec)          // beyond the 1024-cycle horizon: overflow tier
	far := e.At(50_000, rec) // deep overflow
	e.At(wheelSpan+5, rec)   // same bucket index as cycle 5, next epoch
	e.Cancel(far)            // overflow cancellation
	if end := e.Run(); end != 2000 {
		t.Fatalf("final time = %d, want 2000", end)
	}
	want := []Time{5, wheelSpan + 5, 2000}
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
	e.Step()
	// The clock must jump straight across ~10^12 empty cycles.
	if next, ok := e.NextEventTime(); !ok || next != 1<<40 {
		t.Fatalf("NextEventTime after step = %d, %v, want %d, true", next, ok, Time(1)<<40)
	}
	if end := e.Run(); end != 1<<40 {
		t.Fatalf("final time = %d, want %d", end, Time(1)<<40)
	}
	if e.Processed() != 2 {
		t.Fatalf("processed = %d, want 2", e.Processed())
	}
}

func TestWheelCancelMidBucket(t *testing.T) {
	e := New()
	var order []int
	refs := make([]EventRef, 6)
	for i := range refs {
		i := i
		refs[i] = e.At(7, func() { order = append(order, i) })
	}
	e.Cancel(refs[1])
	e.Cancel(refs[4])
	// Reschedule into the tombstoned bucket: appends after the tombstones.
	e.At(7, func() { order = append(order, 9) })
	e.Run()
	want := []int{0, 2, 3, 5, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWheelBarrierKeySort forces the out-of-order insertion path: explicit
// barrier keys appended below the bucket's running maximum must still fire
// in ascending key order.
func TestWheelBarrierKeySort(t *testing.T) {
	e := New()
	e.SetCycleSeq(true)
	var order []int
	h := &orderHandler{eng: e, out: &order}
	e.AtHandlerSeq(5, WindowSeq(0, true, 3), h, 3)
	e.AtHandlerSeq(5, WindowSeq(0, true, 0), h, 0) // below maxSeq: dirties the bucket
	e.AtHandlerSeq(5, WindowSeq(0, true, 2), h, 2)
	e.AtHandlerSeq(5, WindowSeq(0, true, 1), h, 1)
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("barrier keys fired out of order: %v", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
}

type orderHandler struct {
	eng *Engine
	out *[]int
}

func (h *orderHandler) OnEvent(arg any) { *h.out = append(*h.out, arg.(int)) }

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
	refs := make([]EventRef, 10)
	for i := 0; i < 10; i++ {
		i := i
		refs[i] = e.At(Time(10-i), func() { order = append(order, i) })
	}
	e.Cancel(refs[3]) // deadline 7
	e.Run()
	want := []int{9, 8, 7, 6, 5, 4, 2, 1, 0} // ascending deadline = descending i, minus i=3
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
