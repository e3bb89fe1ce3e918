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
// dispatch are O(1), each cycle's bucket drains in one pass, and the clock
// jumps straight over dead cycles (see wheel.go; a binary-heap scheduler
// remains selectable as the cross-check oracle). Fired and cancelled events
// are recycled through a free list, so steady-state scheduling performs no
// heap allocation, and the closure-free AtHandler path lets hot callers
// avoid allocating a closure per event as well. Because event objects are
// reused, the scheduling APIs hand out EventRef values — generation-checked
// handles that keep Cancel and Scheduled safe against a recycled event's
// next incarnation. The one event the engine does not own is a Pend's: its
// owner re-parks it for every step of a chain, and it queues and fires
// exactly like any other event. A chain whose steps nothing else reads
// until a known event runs may leave the queue altogether; the engine
// then settles its steps when they are needed (see chain.go).
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

// Event is a unit of scheduled work. The callback runs at the event's
// deadline with the engine clock already advanced to that deadline. Event
// objects are pooled, except a Pend's, which its owner holds; user code
// holds EventRef handles, never *Event.
type Event struct {
	at    Time
	seq   uint64
	index int    // position in its container (bucket slot or heap index); -1 when not queued
	gen   uint64 // incarnation counter; bumped on every release
	loc   uint8  // wheel tier holding the event (locRing / locOverflow)
	pend  bool   // a Pend's event: owned by the pend, never released to the free list
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
	inlined   uint64   // pend dispatches (subset of processed)
	free      []*Event // recycled events; see SetPooling
	noPool    bool
	chains    []*Chain // chains off the queue (chain.go)

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
		e.wh.buckets, e.free, e.chains = m.buckets, m.free, m.chains
	}
	e.wh.init()
	return e
}

// engineMem is the run-scoped memory an engine hands to the next one: the
// wheel's buckets, with the capacities their slices grew to, the free
// list of recycled events and the emptied list of off-queue chains.
type engineMem struct {
	buckets []wheelBucket
	free    []*Event
	chains  []*Chain
}

var memPool sync.Pool

// Recycle empties the wheel's buckets and hands them, together with the
// event free list, to the pool New draws on. Events still queued and
// chains still off the queue — a run cut off by a cycle limit, a watchdog
// or an abort — are dropped with the engine; a parked pend's event is
// never on the free list, so no later engine hands it out, and the pooled
// chain list keeps no pointer to a chain. The engine must not be used
// afterwards; a second Recycle does nothing.
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
	clear(e.chains)
	memPool.Put(&engineMem{buckets: e.wh.buckets, free: e.free, chains: e.chains[:0]})
	e.wh.buckets, e.free, e.chains = nil, nil, nil
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

// CycleSeq reports whether the engine draws cycle-tagged sequence keys
// (SetCycleSeq). Only an engine with plain keys holds off-queue chains.
func (e *Engine) CycleSeq() bool { return e.cycleSeq }

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
// after every event of that cycle, parked pends included — any scheduled
// into the cycle while it runs too — and before the engine executes anything
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

// Processed returns the number of events executed so far, pend dispatches
// and settled off-queue steps included: a parked continuation is exactly
// the event its event-mode twin would have allocated, and a settled step
// the event it would have queued, so the count stays an invariant measure
// of simulation actions — identical whether processors run fused or
// event-per-step, whether a spin leaves the queue, and independent of how
// shard windows cut the run.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still queued, parked pends
// included, plus one for each chain off the queue (its next step).
func (e *Engine) Pending() int { return e.queued + len(e.chains) }

// Inlined returns how many of the processed events were pend dispatches —
// the fused processor path's events that never left their owner, settled
// off-queue steps of a fused owner included — reported by the throughput
// benchmarks as the pend share.
func (e *Engine) Inlined() uint64 { return e.inlined }

// NextEventTime returns the deadline of the earliest pending event, parked
// pends and the next steps of off-queue chains included. ok is false when
// nothing is pending. On the wheel the probe is an O(1) occupancy-bitmap
// scan, which is what lets guarded runs and the sharded window driver skip
// dead cycles without touching individual events.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	t, ok = e.queueNext()
	for _, c := range e.chains {
		if !ok || c.at < t {
			t, ok = c.at, true
		}
	}
	return t, ok
}

// queueNext returns the deadline of the earliest queued event.
func (e *Engine) queueNext() (Time, bool) {
	if e.useHeap {
		if len(e.heap) == 0 {
			return 0, false
		}
		return e.heap[0].at, true
	}
	return e.wh.next()
}

// Pend is a parked continuation: a handle on one Event that its owner, not
// the engine, holds. A fused processor owns one Pend and re-parks it for
// every pipeline step (issue cycles, hit completions, compute slices,
// context switches), so its chain never draws on the free list. A parked
// pend's event queues and fires exactly like an AtHandler event; the engine
// never pools or cancels it and hands out no EventRef to it.
type Pend struct {
	ev Event
}

// NewPend returns an idle pend that dispatches through fn.
func NewPend(fn func()) *Pend {
	return &Pend{ev: Event{index: -1, pend: true, fn: fn}}
}

// Park files p to run at cycle t. Its event takes the next sequence key and
// joins the queue through the same path as an AtHandler call made at this
// point, so it fires at exactly that call's (deadline, sequence) position.
// A pend may be parked again from its own dispatch (that is the chain), but
// never while it is already waiting.
func (e *Engine) Park(p *Pend, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: parking pend at %d before now %d", t, e.now))
	}
	if p.ev.index >= 0 {
		panic("sim: Park on an already-parked pend")
	}
	p.ev.at = t
	p.ev.seq = e.nextSeq()
	e.enqueue(&p.ev)
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
// plain monotone otherwise.
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

// enqueue files a stamped event — pooled or a pend's — with the active
// scheduler. An event inside the wheel's horizon, the common case, goes
// straight into its bucket.
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

// Step executes the single earliest queued event, advancing the clock to
// its deadline. It reports false when nothing remains queued. A pooled
// event is recycled before the callback runs, so the callback can
// immediately schedule into the freed slot. An armed end-of-cycle hook
// runs first when the next event lies in a later cycle or nothing remains;
// it is not the step. Off-queue chains settle only at their wake points,
// as under Run, which Step loops mirror.
func (e *Engine) Step() bool {
	if e.hookArmed {
		if t, ok := e.queueNext(); !ok || t > e.now {
			e.runHook()
		}
	}
	if !e.useHeap {
		return e.stepWheel()
	}
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap.pop()
	e.fire(ev, ev.at)
	return true
}

// fire advances the clock to t and executes ev. A pooled event is recycled
// first, so the callback can immediately schedule into the freed slot; a
// pend's event stays with its owner, ready to be parked again.
func (e *Engine) fire(ev *Event, t Time) {
	if ev.at != t {
		panic(fmt.Sprintf("sim: event due at %d fired in cycle %d", ev.at, t))
	}
	ev.index = -1
	e.queued--
	e.now = t
	e.processed++
	if ev.pend {
		e.inlined++
		ev.fn()
		return
	}
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
// advances past limit. On the wheel, whole per-cycle buckets drain without
// consulting the queue head between events, and the clock jumps directly to
// each next non-empty cycle.
//
// The effective limit is re-read between cycles, so an event callback may
// lower it mid-run with ClampRunLimit; the cycle being drained always
// completes. Off-queue chains settle through the effective limit before
// RunUntil returns, an aborted run's included (see chain.go).
func (e *Engine) RunUntil(limit Time) Time {
	if e.abort {
		return e.now
	}
	e.runLimit = limit
	if !e.useHeap {
		e.runWheel()
	} else {
		e.runHeap()
	}
	e.settleChains()
	return e.now
}

// runHeap is the heap scheduler's run loop: it fires the heap's earliest
// event until the next deadline is past the run limit. It returns the next
// pending deadline (Forever when everything drained), mirroring runWheel,
// and runs an armed end-of-cycle hook exactly where runWheel does.
func (e *Engine) runHeap() Time {
	for {
		next := Forever
		if len(e.heap) > 0 {
			next = e.heap[0].at
		}
		if e.hookArmed && next > e.now {
			e.runHook()
			continue
		}
		if len(e.heap) == 0 {
			return Forever
		}
		if next > e.runLimit {
			return next
		}
		e.fire(e.heap.pop(), next)
	}
}

// RunUntilNext is RunUntil fused with the follow-up NextEventTime probe:
// it executes events with deadlines at or before limit and returns the
// next pending deadline, or Forever when the queue is empty. The windowed
// sharded driver calls it once per shard per window, where the separate
// probe would repeat the scan the run's exit check just did; its engines
// use cycle-tagged keys, so they never hold an off-queue chain.
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
