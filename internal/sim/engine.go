// Package sim provides the deterministic discrete-event simulation engine
// that underlies the Alewife machine model.
//
// The engine maintains pending events ordered by (time, sequence number).
// Because ties are broken by the order in which events were scheduled, a
// simulation run is fully deterministic: the same configuration always
// produces the same event interleaving and therefore the same cycle
// counts. Determinism is what lets the test suite assert exact execution
// times and lets the protocol model checker replay interleavings.
//
// The engine is built for throughput: the default scheduler is a timing
// wheel — a ring of per-cycle buckets sized to the near-future horizon
// with an overflow tier beyond it — so scheduling, cancellation, and
// dispatch are O(1), whole cycles dispatch as batches, and the clock jumps
// straight over dead cycles (see wheel.go; a binary-heap scheduler remains
// selectable as the cross-check oracle). Fired and cancelled events are
// recycled through a free list, so steady-state scheduling performs no
// heap allocation, and the closure-free AtHandler path lets hot callers
// avoid allocating a closure per event as well. Because event objects are
// reused, the scheduling APIs hand out EventRef values — generation-checked
// handles that keep Cancel and Scheduled safe against a recycled event's
// next incarnation.
//
// Time is measured in processor clock cycles (the paper reports all results
// in cycles of the 33 MHz SPARCLE clock).
package sim

import (
	"fmt"
	"math"
	"sync"
)

// Time is a point in simulated time, in processor cycles.
type Time int64

// Forever is a Time later than any reachable simulation time.
const Forever Time = math.MaxInt64

// Handler is the closure-free event callback: hot callers pre-allocate one
// handler per dispatch kind and pass per-event state through arg (a pointer,
// to avoid boxing). Cold paths can keep using At with a closure.
type Handler interface {
	OnEvent(arg any)
}

// BatchHandler is an optional extension of Handler. Schedulers that dispatch
// whole cycles at once (the timing wheel) deliver a run of consecutive
// same-handler events through a single OnEvents call instead of one virtual
// OnEvent call per event. OnEvents(args) must behave exactly as calling
// OnEvent(arg) for each arg in order: the batch is purely a call-overhead
// optimization and must never change results. The heap scheduler never
// batches, which is what lets the wheel-vs-heap cross-check tests verify
// that claim, and Step never batches either (it executes exactly one event
// by contract). The args slice is engine-owned scratch, valid only for the
// duration of the call. Implementations must have a comparable (pointer-
// shaped) dynamic type: run detection compares handler identity with ==.
type BatchHandler interface {
	Handler
	OnEvents(args []any)
}

// Event is a unit of scheduled work. The callback runs at the event's
// deadline with the engine clock already advanced to that deadline. Event
// objects are pooled; user code holds EventRef handles, never *Event.
type Event struct {
	at    Time
	seq   uint64
	index int    // position in its container (bucket slot or heap index); -1 when not queued
	gen   uint64 // incarnation counter; bumped on every release
	loc   uint8  // wheel tier holding the event (locRing / locOverflow)
	fn    func()
	h     Handler
	arg   any
}

// EventRef is a handle to one scheduled incarnation of an event. The zero
// EventRef is valid and refers to nothing. Because events are recycled, the
// handle carries the incarnation's generation: once the event fires or is
// cancelled, the handle goes stale and reports Scheduled() == false even if
// the underlying object has been reused for a later event.
type EventRef struct {
	ev  *Event
	gen uint64
}

// Scheduled reports whether this incarnation is still pending in the queue.
func (r EventRef) Scheduled() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.index >= 0
}

// Time returns the cycle at which the event fires. ok is false when the
// handle is stale (fired, cancelled, or zero) — every Time value, including
// negative ones, is representable, so staleness is reported out of band
// rather than through an in-band sentinel.
func (r EventRef) Time() (t Time, ok bool) {
	if !r.Scheduled() {
		return 0, false
	}
	return r.ev.at, true
}

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is ready to use (with the timing-wheel scheduler). Engine
// is not safe for concurrent use; one simulation runs on one goroutine.
// Run many engines in parallel for parameter sweeps.
type Engine struct {
	now       Time
	seq       uint64
	wh        wheel
	heap      eventHeap
	useHeap   bool
	queued    int
	processed uint64
	inlined   uint64    // continuations dispatched through the pend path (subset of processed)
	pq        pendQueue // parked inline continuations, co-scheduled with the event queue
	free      []*Event  // recycled events; see SetPooling
	noPool    bool
	batch     []any // reusable arg buffer for fireBatch (wheel batch dispatch)

	// Windowed-mode sequencing (see SetCycleSeq): seqCycle is the cycle the
	// per-cycle counter is counting for, cycleCtr the next counter value.
	cycleSeq bool
	seqCycle Time
	cycleCtr uint32

	// runLimit is the limit of the RunUntil in progress. It starts at the
	// call's limit argument and only ever decreases (ClampRunLimit), so a
	// model can end the current run early — the adaptive sharded window
	// uses it to stop an engine one window past its own first deferred
	// cross-shard send.
	runLimit Time

	// abort permanently halts event execution (see Abort).
	abort bool

	// hook is the end-of-cycle hook (see SetCycleHook); hookArmed records
	// that it must run before the engine leaves the current cycle.
	hook      func()
	hookArmed bool
}

// New returns an engine with the clock at cycle 0, using the timing-wheel
// scheduler. Call SetScheduler to select the heap fallback. The wheel's
// buckets and the event free list come from a recycled engine when one is
// pooled (see Recycle).
func New() *Engine {
	e := &Engine{}
	if m, _ := memPool.Get().(*engineMem); m != nil {
		e.wh.buckets, e.free = m.buckets, m.free
	}
	e.wh.init()
	e.pq.minAt = Forever
	return e
}

// engineMem is the run-scoped memory an engine hands to the next one: the
// wheel's buckets, with the capacities their slices grew to, and the free
// list of recycled events.
type engineMem struct {
	buckets []wheelBucket
	free    []*Event
}

var memPool sync.Pool

// Recycle empties the wheel's buckets and hands them, together with the
// event free list, to the pool New draws on. Events still queued — a run
// cut off by a cycle limit, a watchdog or an abort — are dropped with the
// engine. The engine must not be used afterwards; a second Recycle does
// nothing.
func (e *Engine) Recycle() {
	if e.wh.buckets == nil {
		return
	}
	for i := range e.wh.buckets {
		b := &e.wh.buckets[i]
		clear(b.evs)
		b.reset()
		b.live = 0
	}
	memPool.Put(&engineMem{buckets: e.wh.buckets, free: e.free})
	e.wh.buckets, e.free = nil, nil
}

// SetScheduler selects the pending-event data structure. Both schedulers
// fire events in identical (time, sequence) order, so results are
// bit-identical under either; the heap exists as a cross-check oracle and
// fallback. Switch only while the queue is empty — migrating pending
// events between structures is not supported.
func (e *Engine) SetScheduler(k SchedulerKind) {
	if e.queued > 0 {
		panic("sim: SetScheduler with events pending")
	}
	e.useHeap = k == SchedHeap
	if !e.useHeap {
		e.wh.init()
	}
}

// Scheduler returns the active scheduler kind.
func (e *Engine) Scheduler() SchedulerKind {
	if e.useHeap {
		return SchedHeap
	}
	return SchedWheel
}

// SetPooling enables or disables event recycling. Pooling is on by default;
// disabling it makes every schedule allocate a fresh Event, which is useful
// only to cross-check that pooling does not perturb results (it must not —
// event order depends solely on (time, sequence)).
func (e *Engine) SetPooling(on bool) { e.noPool = !on }

// Cycle-tagged sequence layout (windowed mode). A sequence number encodes
// (allocation cycle, phase, per-cycle counter) so that tie-breaking among
// same-deadline events depends only on each event's allocation cycle and its
// scheduling order within that cycle — quantities that are identical no
// matter how a sharded run partitions nodes across engines. Phase orders
// barrier-flush insertions (phase 1) after events allocated during cycle
// execution at the same cycle (phase 0).
const (
	seqCtrBits    = 24
	seqPhaseShift = seqCtrBits
	seqCycleShift = seqCtrBits + 1
	seqCtrLimit   = 1 << seqCtrBits
	seqCycleLimit = Time(1) << (64 - seqCycleShift)
)

// SetCycleSeq switches the engine between plain monotone sequence numbers
// (the default) and cycle-tagged sequence numbers. Windowed sharded
// execution requires cycle tagging on every participating engine so that
// same-deadline tie-breaks are invariant under the shard partition. Switch
// only while the queue is empty; mixing the two numbering schemes in one
// queue would compare unrelated keys.
func (e *Engine) SetCycleSeq(on bool) {
	if e.queued > 0 {
		panic("sim: SetCycleSeq with events pending")
	}
	e.cycleSeq = on
}

// WindowSeq builds a cycle-tagged sequence number by hand: the key an event
// allocated at cycle with per-cycle counter ctr would receive. flush selects
// the barrier-flush phase, ordered after all same-cycle execution-phase
// events. Used by window barriers to stamp cross-shard insertions with a
// partition-independent key.
func WindowSeq(cycle Time, flush bool, ctr uint32) uint64 {
	if cycle < 0 || cycle >= seqCycleLimit {
		panic(fmt.Sprintf("sim: cycle %d out of range for cycle-tagged seq", cycle))
	}
	if ctr >= seqCtrLimit {
		panic("sim: per-cycle sequence counter overflow")
	}
	s := uint64(cycle)<<seqCycleShift | uint64(ctr)
	if flush {
		s |= 1 << seqPhaseShift
	}
	return s
}

// SetCycleHook installs fn as the engine's end-of-cycle hook. The hook is
// not an event: it runs only in a cycle that armed it (ArmCycleHook), once,
// after every event and parked pend of that cycle — including any scheduled
// into the cycle while it runs — and before the engine executes anything
// later, or before a run whose queue has drained returns. Processed does
// not count it, and the wheel and the heap run it at the same point of the
// (deadline, sequence) order. The hook may schedule events, and anything it
// schedules draws its sequence key after every event allocated during the
// cycle and before any allocated during a later one; this is what lets a
// one-engine network claim a whole cycle's sends in one canonical batch.
func (e *Engine) SetCycleHook(fn func()) { e.hook = fn }

// ArmCycleHook requests one run of the installed end-of-cycle hook at the
// end of the current cycle; arming it again within the cycle changes
// nothing. The engine must have a hook.
func (e *Engine) ArmCycleHook() { e.hookArmed = true }

// runHook disarms and runs the end-of-cycle hook.
func (e *Engine) runHook() {
	e.hookArmed = false
	e.hook()
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far. Pend dispatches
// count too: a parked continuation is exactly the event it avoided
// allocating, so the count stays an invariant measure of simulation
// actions — identical whether processors run fused or event-per-step, and
// independent of how shard windows cut the run.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still queued, parked pends included.
func (e *Engine) Pending() int { return e.queued + e.pq.count }

// Inlined returns how many of the processed actions were dispatched through
// the pend path rather than as scheduled events — the fused processor
// path's event savings, reported by the throughput benchmarks.
func (e *Engine) Inlined() uint64 { return e.inlined }

// schedNext returns the deadline of the earliest pending event in the
// active scheduler structure, ignoring parked pends.
func (e *Engine) schedNext() (t Time, ok bool) {
	if e.useHeap {
		if len(e.heap) == 0 {
			return 0, false
		}
		return e.heap[0].at, true
	}
	return e.wh.next()
}

// NextEventTime returns the deadline of the earliest pending action —
// scheduled event or parked pend. ok is false when nothing is pending. On
// the wheel the event probe is an O(1) occupancy-bitmap scan, which is what
// lets guarded runs and the sharded window driver skip dead cycles without
// touching individual events.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	t, ok = e.schedNext()
	if e.pq.minAt < t || !ok && e.pq.count > 0 {
		return e.pq.minAt, true
	}
	return t, ok
}

// Pend is a parked inline continuation: one future action co-scheduled with
// the event queue in exact (deadline, sequence) order but dispatched through
// a direct call — no event allocation, no bucket traffic, no pooled-object
// recycling. A fused processor owns one Pend and re-parks it for every
// pipeline step (issue cycles, hit completions, compute slices, context
// switches), which removes the dominant event class from the scheduler
// while preserving the bit-exact total order of the event-per-step path.
type Pend struct {
	at    Time
	seq   uint64
	next  *Pend // successor in its pend-ring slot (ascending seq)
	index int   // ring slot or overflow-heap position; -1 when idle
	loc   uint8 // pend-queue tier holding the pend (locRing / locOverflow)
	fn    func()
}

// NewPend returns an idle pend that dispatches through fn.
func NewPend(fn func()) *Pend { return &Pend{index: -1, fn: fn} }

// Park files p to run at cycle t. The pend receives the sequence key the
// equivalent AtHandler call would have stamped on an event — it consumes
// the same counter at the same execution point — so the engine's merged
// dispatch order is indistinguishable from the all-events schedule. A pend
// may be parked again from its own dispatch (that is the chain), but never
// while it is already waiting.
func (e *Engine) Park(p *Pend, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: parking pend at %d before now %d", t, e.now))
	}
	if p.index >= 0 {
		panic("sim: Park on an already-parked pend")
	}
	p.at = t
	p.seq = e.nextSeq()
	e.pq.park(e.now, p)
}

// firePend dispatches the earliest parked pend, advancing the clock to its
// deadline. The caller guarantees a pend is parked and that no scheduled
// event precedes it in (deadline, sequence) order.
func (e *Engine) firePend() {
	p := e.pq.popMin()
	e.now = p.at
	e.processed++
	e.inlined++
	p.fn()
}

// firePendRun dispatches the run of parked pends at cycle t with sequence
// keys below seqLimit — the pends that precede the cycle's next scheduled
// event. The caller guarantees the earliest pend is in the ring at cycle t
// with seq < seqLimit. Sequence keys are allocated monotonically in wall
// order, so anything a dispatch parks or schedules draws a key above
// seqLimit and cannot enter the run: the slot list's head segment drains
// with the queue bookkeeping paid once instead of once per pend.
func (e *Engine) firePendRun(t Time, seqLimit uint64) {
	q := &e.pq
	if q.minP.loc != locRing {
		e.firePend() // overflow-tier pend: rare, no run to batch
		return
	}
	i := q.minP.index
	s := &q.ring[i]
	e.now = t
	for {
		p := s.head
		if p == nil || p.seq >= seqLimit {
			break
		}
		s.head = p.next
		p.next = nil
		p.index = -1
		q.count--
		e.processed++
		e.inlined++
		p.fn()
	}
	if s.head == nil {
		s.tail = nil
		q.occ &^= 1 << uint(i)
	}
	q.refreshMin(t)
}

// firePendTail dispatches pends parked at cycle t after the cycle's last
// drained event, stopping when a dispatch schedules an event: the new event
// may target t itself and must interleave with any pend parked after it in
// sequence order, so the caller's drain loop re-takes control. (Today every
// pend parks strictly in the future, making an out-of-order tail park
// impossible, but the guard keeps the engine honest rather than relying on
// that model property.)
func (e *Engine) firePendTail(t Time) {
	q := &e.pq
	if q.minP.loc != locRing {
		e.firePend()
		return
	}
	i := q.minP.index
	s := &q.ring[i]
	e.now = t
	qd := e.queued
	for {
		p := s.head
		if p == nil {
			break
		}
		s.head = p.next
		p.next = nil
		p.index = -1
		q.count--
		e.processed++
		e.inlined++
		p.fn()
		if e.queued != qd {
			break
		}
	}
	if s.head == nil {
		s.tail = nil
		q.occ &^= 1 << uint(i)
	}
	q.refreshMin(t)
}

// fireSlot dispatches the earliest parked pend's whole cohort — every pend
// sharing its deadline — in ascending sequence order. The caller guarantees
// the cohort precedes every scheduled event. Anything a dispatch schedules
// at the cohort's own cycle carries a strictly larger sequence key than
// every remaining cohort member (keys are allocated monotonically, and the
// cohort's keys were all drawn before its first dispatch), so the detached
// list drains without re-probing the event queue and the total (deadline,
// sequence) order is preserved exactly. This is the pend analog of the
// wheel's per-cycle bucket batch: the queue bookkeeping — occupancy bit,
// cached minimum — is paid once per cohort instead of once per pend.
func (e *Engine) fireSlot() {
	if e.pq.minP.loc != locRing {
		e.firePend() // overflow-tier pend: rare, no cohort to batch
		return
	}
	p := e.pq.detachMinSlot()
	e.now = p.at
	for p != nil {
		nxt := p.next
		p.next = nil
		p.index = -1
		e.processed++
		e.inlined++
		p.fn()
		p = nxt
	}
}

// allocEvent takes an event from the free list (or the heap allocator) and
// stamps it with deadline t, leaving the sequence key to the caller.
func (e *Engine) allocEvent(t Time) *Event {
	if t < e.now {
		e.pastPanic(t)
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at = t
	return ev
}

// pastPanic reports an attempt to schedule before the clock. It is out of
// line so that the scheduling fast path stays small.
func (e *Engine) pastPanic(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
}

// nextSeq draws the next sequence key: cycle-tagged in windowed mode,
// plain monotone otherwise. Events and parked pends share the counter, so
// the merged dispatch order is identical to the all-events schedule.
func (e *Engine) nextSeq() uint64 {
	if e.cycleSeq {
		return e.nextCycleSeq()
	}
	s := e.seq
	e.seq++
	return s
}

// nextCycleSeq draws the next cycle-tagged key: the per-cycle counter
// restarts whenever the clock has moved since the last draw.
func (e *Engine) nextCycleSeq() uint64 {
	if e.now != e.seqCycle {
		e.seqCycle = e.now
		e.cycleCtr = 0
	}
	s := WindowSeq(e.now, false, e.cycleCtr)
	e.cycleCtr++
	return s
}

// enqueue files a stamped event with the active scheduler. An event inside
// the wheel's horizon, the common case, goes straight into its bucket.
func (e *Engine) enqueue(ev *Event) {
	switch {
	case e.useHeap:
		e.heap.push(ev)
	case ev.at-e.wh.base < wheelSpan:
		e.wh.ringInsert(ev)
	default:
		e.wh.schedule(ev)
	}
	e.queued++
}

// release retires an event incarnation: stale handles stop matching, the
// callback state is dropped, and the object returns to the free list.
func (e *Engine) release(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.h = nil
	ev.arg = nil
	if !e.noPool {
		e.free = append(e.free, ev)
	}
}

// At schedules fn to run at absolute cycle t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) EventRef {
	ev := e.allocEvent(t)
	ev.seq = e.nextSeq()
	ev.fn = fn
	e.enqueue(ev)
	return EventRef{ev, ev.gen}
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Time, fn func()) EventRef {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.At(e.now+delay, fn)
}

// AtHandler schedules h.OnEvent(arg) at absolute cycle t without allocating
// a closure. Pass pointer-shaped args to keep the call allocation-free.
func (e *Engine) AtHandler(t Time, h Handler, arg any) EventRef {
	ev := e.allocEvent(t)
	ev.seq = e.nextSeq()
	ev.h = h
	ev.arg = arg
	e.enqueue(ev)
	return EventRef{ev, ev.gen}
}

// AtHandlerSeq schedules h.OnEvent(arg) at absolute cycle t with an
// explicit sequence key instead of the engine's own numbering. Window
// barriers use this to insert cross-shard deliveries under a WindowSeq key
// so that tie-breaking is identical across shard partitions. Keys must be
// cycle-tagged (the engine must be in SetCycleSeq mode) and unique per
// (t, seq) within this engine, and calls may only happen between windows —
// never from inside an event callback — so a key below an already-fired
// same-cycle event cannot occur.
func (e *Engine) AtHandlerSeq(t Time, seq uint64, h Handler, arg any) EventRef {
	if !e.cycleSeq {
		panic("sim: AtHandlerSeq on an engine without cycle-tagged sequencing")
	}
	ev := e.allocEvent(t)
	ev.seq = seq
	ev.h = h
	ev.arg = arg
	e.enqueue(ev)
	return EventRef{ev, ev.gen}
}

// AfterHandler schedules h.OnEvent(arg) delay cycles from now.
func (e *Engine) AfterHandler(delay Time, h Handler, arg any) EventRef {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.AtHandler(e.now+delay, h, arg)
}

// Cancel removes a pending event from the queue and recycles it.
// Cancelling a stale handle — the event already ran, was already cancelled,
// or the zero EventRef — is a no-op.
func (e *Engine) Cancel(r EventRef) {
	if !r.Scheduled() {
		return
	}
	if e.useHeap {
		e.heap.removeAt(r.ev.index)
	} else {
		e.wh.remove(r.ev)
	}
	e.queued--
	e.release(r.ev)
}

// Step executes the single earliest pending action — scheduled event or
// parked pend — advancing the clock to its deadline. It reports false when
// nothing remains. The event object is recycled before the callback runs,
// so the callback can immediately schedule into the freed slot. An armed
// end-of-cycle hook runs first when the next action lies in a later cycle
// or nothing remains; it is not the step.
func (e *Engine) Step() bool {
	if e.hookArmed {
		if t, ok := e.NextEventTime(); !ok || t > e.now {
			e.runHook()
		}
	}
	if !e.useHeap {
		return e.stepWheel()
	}
	if len(e.heap) == 0 {
		if e.pq.count == 0 {
			return false
		}
		e.firePend()
		return true
	}
	if e.pq.minAt < e.heap[0].at || (e.pq.minAt == e.heap[0].at && e.pq.minSeq < e.heap[0].seq) {
		e.firePend()
		return true
	}
	e.stepHeapEvent()
	return true
}

// stepHeapEvent pops and fires the heap's earliest event unconditionally.
func (e *Engine) stepHeapEvent() {
	ev := e.heap.pop()
	e.queued--
	e.now = ev.at
	e.processed++
	fn, h, arg := ev.fn, ev.h, ev.arg
	e.release(ev)
	if h != nil {
		h.OnEvent(arg)
	} else {
		fn()
	}
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with deadlines at or before limit. Events
// scheduled beyond limit stay queued. It returns the time of the last
// executed event (or the unchanged clock when nothing ran). The clock never
// advances past limit. On the wheel this is the batch-dispatch hot path:
// whole per-cycle buckets drain without consulting the queue head between
// events, and the clock jumps directly to each next non-empty cycle.
//
// The effective limit is re-read between cycles, so an event callback may
// lower it mid-run with ClampRunLimit; the cycle being drained always
// completes.
func (e *Engine) RunUntil(limit Time) Time {
	if e.abort {
		return e.now
	}
	e.runLimit = limit
	if !e.useHeap {
		e.runWheel()
		return e.now
	}
	e.runHeap()
	return e.now
}

// runHeap is the heap scheduler's run loop: it merges the event heap and
// the pend heap in (deadline, sequence) order, dispatching whichever is
// earlier until both are past the run limit. It returns the next pending
// deadline (Forever when everything drained), mirroring runWheel, and runs
// an armed end-of-cycle hook exactly where runWheel does.
func (e *Engine) runHeap() Time {
	for {
		next := Forever
		var pend, empty bool
		switch {
		case len(e.heap) == 0 && e.pq.count == 0:
			empty = true
		case len(e.heap) == 0 || e.pq.minAt < e.heap[0].at ||
			(e.pq.minAt == e.heap[0].at && e.pq.minSeq < e.heap[0].seq):
			next, pend = e.pq.minAt, true
		default:
			next = e.heap[0].at
		}
		if e.hookArmed && (empty || next > e.now) {
			e.runHook()
			continue
		}
		if empty {
			return Forever
		}
		if next > e.runLimit {
			return next
		}
		if pend {
			e.firePend()
		} else {
			e.stepHeapEvent()
		}
	}
}

// RunUntilNext is RunUntil fused with the follow-up NextEventTime probe:
// it executes events with deadlines at or before limit and returns the
// next pending deadline, or Forever when the queue is empty. The windowed
// sharded driver calls it once per shard per window, where the separate
// probe would repeat the scan the run's exit check just did.
func (e *Engine) RunUntilNext(limit Time) Time {
	e.runLimit = limit
	if !e.useHeap {
		return e.runWheel()
	}
	return e.runHeap()
}

// ClampRunLimit lowers the limit of the RunUntil currently in progress to
// at most t. Events of the cycle being executed still complete (t is never
// below the engine clock in well-formed use), so the run stops at the next
// cycle boundary past t. Outside a RunUntil the clamp has no lasting
// effect: every RunUntil call resets the limit. The adaptive sharded
// window calls this when a model defers its first cross-shard send of a
// window, capping the shard one lookahead width past the send cycle.
func (e *Engine) ClampRunLimit(t Time) {
	if t < e.runLimit {
		e.runLimit = t
	}
}

// Abort permanently stops event execution: the run in progress ends at the
// current cycle boundary (queued events stay queued) and later RunUntil
// calls return immediately. A model calls this from inside an event when
// continuing is pointless — the machine's reliable transport aborts a run
// whose retransmit budget is exhausted, where waiting for the queue to
// drain would hang into the watchdog instead of reporting cleanly.
func (e *Engine) Abort() {
	e.abort = true
	if e.runLimit > e.now {
		e.runLimit = e.now
	}
}

// Aborted reports whether Abort was called.
func (e *Engine) Aborted() bool { return e.abort }
