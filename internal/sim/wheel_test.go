package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// --- scheduler reference harness ---
//
// The engine's contract: every event fires once, in exactly ascending
// (deadline, sequence) order, where the sequence is the order the events
// were scheduled in; an armed end-of-cycle hook runs in the cycle that
// armed it, after every event of that cycle and before any later one; and
// RunUntil fires everything due by its limit and nothing later. The
// harness interprets a byte stream as a schedule/run/arm/continue program,
// replays it through the engine, and logs every schedule call, firing and
// hook run. The reference is the schedule log itself: sorted by (deadline,
// scheduling order), it is the order the engine must fire in. The fuzz
// target and the seeded randomized test below both drive it.

type fireRec struct {
	id int
	at Time
}

type streamDriver struct {
	e      *Engine
	sched  []fireRec // every event scheduled; id is the index, so scheduling order
	fired  []bool    // by id
	fires  []fireRec // firings and hook runs (negative ids), in order
	nfired int
	hooks  int  // hook runs so far
	hookAt Time // delay of the event the next hook run schedules
	armed  bool // the hook is armed, in cycle armAt
	armAt  Time
	limit  Time // limit of the RunUntil in progress
	errs   []string

	conts [3]*drvCont
}

func (d *streamDriver) errorf(format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf(format, args...))
}

// add logs one schedule call for deadline at and returns its id.
func (d *streamDriver) add(at Time) int {
	d.sched = append(d.sched, fireRec{id: len(d.sched), at: at})
	d.fired = append(d.fired, false)
	return len(d.sched) - 1
}

// fire logs the firing of event id, which must be its first, at its own
// deadline and within the run's limit.
func (d *streamDriver) fire(id int) {
	now := d.e.Now()
	switch {
	case d.fired[id]:
		d.errorf("event %d fired twice", id)
	case d.sched[id].at != now:
		d.errorf("event %d due at %d fired in cycle %d", id, d.sched[id].at, now)
	case now > d.limit:
		d.errorf("event %d fired in cycle %d, past the run limit %d", id, now, d.limit)
	}
	d.fired[id] = true
	d.nfired++
	d.fires = append(d.fires, fireRec{id: id, at: now})
}

// unfiredBy returns an event due at or before t that has not fired, if any.
func (d *streamDriver) unfiredBy(t Time) (fireRec, bool) {
	for _, r := range d.sched {
		if !d.fired[r.id] && r.at <= t {
			return r, true
		}
	}
	return fireRec{}, false
}

// drvCont is one of the driver's continuations: a chain of AtHandler
// events, each scheduled by the one before it from its own dispatch, as a
// processor's pipeline steps are.
type drvCont struct {
	d      *streamDriver
	id     int // the pending firing's event id
	queued bool
	chain  int // re-schedules still to make from its own dispatch
}

// file schedules the continuation delay cycles out.
func (dc *drvCont) file(delay Time) {
	dc.queued = true
	at := dc.d.e.Now() + delay
	dc.id = dc.d.add(at)
	dc.d.e.AtHandler(at, dc, nil)
}

// OnEvent logs the firing and, while the chain lasts, re-schedules from
// the dispatch itself — three cycles out, then into the cycle being
// drained.
func (dc *drvCont) OnEvent(any) {
	dc.queued = false
	dc.d.fire(dc.id)
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
	at := d.e.Now() + delay
	id := d.add(at)
	d.e.At(at, func() { d.fire(id) })
}

// scheduleChained schedules an event whose callback schedules a child —
// exercising mid-drain insertion into the current and nearby buckets.
func (d *streamDriver) scheduleChained(delay, childDelay Time) {
	at := d.e.Now() + delay
	id := d.add(at)
	d.e.At(at, func() {
		d.fire(id)
		d.schedule(childDelay)
	})
}

// hook is the end-of-cycle hook: it must run only while armed, in the
// armed cycle, once every event due by then has fired.
func (d *streamDriver) hook() {
	now := d.e.Now()
	d.hooks++
	if !d.armed || now != d.armAt {
		d.errorf("hook %d ran in cycle %d; armed=%v in cycle %d", d.hooks, now, d.armed, d.armAt)
	}
	if r, ok := d.unfiredBy(now); ok {
		d.errorf("hook %d ran in cycle %d before event %d due at %d", d.hooks, now, r.id, r.at)
	}
	d.armed = false
	d.fires = append(d.fires, fireRec{id: -d.hooks, at: now})
	// Delay 0 schedules into the cycle the hook is closing, which must
	// then run before anything later.
	d.schedule(d.hookAt)
}

// run is one RunUntil: everything due by limit fires, nothing later.
func (d *streamDriver) run(limit Time) {
	d.limit = limit
	d.e.RunUntil(limit)
	if now := d.e.Now(); now > limit {
		d.errorf("RunUntil(%d) left the clock at %d", limit, now)
	}
	if r, ok := d.unfiredBy(limit); ok {
		d.errorf("RunUntil(%d) returned with event %d due at %d unfired", limit, r.id, r.at)
	}
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

// runSchedStream replays data as a scheduler op program and returns every
// departure from the reference it observed.
func runSchedStream(data []byte) []string {
	e := New()
	d := &streamDriver{e: e}
	for k := range d.conts {
		d.conts[k] = &drvCont{d: d}
	}
	e.SetCycleHook(d.hook)

	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
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
			d.run(e.Now() + Time(arg%3))
		case opRun:
			d.run(e.Now() + Time(arg%200))
		case opShort:
			d.schedule(Time(arg & 15))
		case opArm:
			d.hookAt = Time(arg & 3)
			if !d.armed {
				d.armed, d.armAt = true, e.Now()
			}
			e.ArmCycleHook()
		case opCont:
			d.cont(int(arg)%len(d.conts), arg)
		}
		if want := len(d.sched) - d.nfired; e.Pending() != want {
			d.errorf("op %d: Pending %d, want %d scheduled and unfired", i/2, e.Pending(), want)
		}
	}
	d.run(Forever)
	if d.armed {
		d.errorf("a hook armed in cycle %d never ran", d.armAt)
	}
	if e.Pending() != 0 || e.Processed() != uint64(len(d.sched)) {
		d.errorf("drained engine: Pending %d, Processed %d, want 0 and %d", e.Pending(), e.Processed(), len(d.sched))
	}
	var last Time
	var order []fireRec
	for _, f := range d.fires {
		if f.id >= 0 {
			order = append(order, f)
			last = f.at
		}
	}
	if e.Now() != last {
		d.errorf("final clock %d, last firing in cycle %d", e.Now(), last)
	}
	if diff := sortedDiff(d.sched, order); diff != "" {
		d.errorf("%s", diff)
	}
	return d.errs
}

// sortedDiff compares a firing log with the reference: the schedule log
// sorted by (deadline, scheduling order). It returns the first difference,
// or "" when the engine fired exactly the reference order.
func sortedDiff(sched, fires []fireRec) string {
	ref := slices.Clone(sched)
	slices.SortStableFunc(ref, func(a, b fireRec) int { return cmp.Compare(a.at, b.at) })
	for i := range ref {
		if i >= len(fires) {
			return fmt.Sprintf("fired %d events, scheduled %d", len(fires), len(ref))
		}
		if fires[i] != ref[i] {
			return fmt.Sprintf("firing %d is %+v, the (deadline, sequence) order has %+v", i, fires[i], ref[i])
		}
	}
	if len(fires) > len(ref) {
		return fmt.Sprintf("fired %d events, scheduled %d", len(fires), len(ref))
	}
	return ""
}

// compareStreams replays data through the engine and fails on the first
// departure from the reference.
func compareStreams(t *testing.T, label string, data []byte) {
	t.Helper()
	if errs := runSchedStream(data); len(errs) > 0 {
		t.Fatalf("%s: %s (%d departures from the reference in all)", label, errs[0], len(errs))
	}
}

// TestSchedulerEquivalenceRandom replays seeded random op streams and
// demands the reference's (deadline, sequence) fire order — the randomized
// counterpart of FuzzSchedulerEquivalence. The last stream is long enough
// for the free list to hand every event object out thousands of times.
func TestSchedulerEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1f1e33))
	for round := 0; round <= 200; round++ {
		n := rng.Intn(400) + 2
		if round == 200 {
			n = 40_000
		}
		data := make([]byte, n)
		rng.Read(data)
		compareStreams(t, "random", data)
	}
}

// FuzzSchedulerEquivalence is the fuzz form of the cross-check: any byte
// stream, interpreted as a scheduler op program, must fire in the
// reference order. Between them the seeds use every op.
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

// TestWheelSteadyStateDoesNotAllocate: the ring hot path must stay
// allocation-free once bucket slices are warm.
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
