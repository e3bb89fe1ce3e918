package sim

import (
	"fmt"
	"math/bits"
)

// SchedulerKind selects the engine's pending-event data structure.
//
// The timing wheel is the default: nearly every event in the machine model
// (cache hits, per-hop mesh latencies, memory access, trap dispatch) is
// scheduled only a handful of cycles into the future, so an O(1) ring of
// per-cycle buckets beats the O(log n) heap on every hot operation. The
// heap remains selectable as a cross-check oracle: both schedulers fire
// events in exactly (deadline, sequence) order, so every simulation result
// is bit-identical under either.
type SchedulerKind uint8

const (
	// SchedWheel is the hierarchical timing wheel (O(1) schedule, cancel,
	// and pop; per-cycle batch dispatch; dead-cycle skipping).
	SchedWheel SchedulerKind = iota
	// SchedHeap is the specialized binary heap (O(log n) operations),
	// kept as the reference implementation and fallback.
	SchedHeap
)

// Wheel geometry. The ring holds one bucket per cycle over a power-of-two
// near-future horizon; events beyond the horizon wait in the overflow heap
// and are promoted into the ring as the clock crosses wheel epochs. 1024
// cycles comfortably covers the model's native delays (hits, hops, memory,
// trap service, retry backoff ≤ 256) so the overflow tier sees only
// watchdog deadlines, Forever-adjacent timers, and fault-plan jitter tails.
const (
	wheelBits  = 10
	wheelSpan  = Time(1) << wheelBits
	wheelMask  = int(wheelSpan - 1)
	wheelWords = int(wheelSpan) / 64
)

// Event location markers (Event.loc): which wheel tier holds the event.
const (
	locRing uint8 = iota
	locOverflow
)

// wheelBucket holds every pending event of one cycle. evs[head:] are the
// not-yet-fired slots; cancelled events leave nil tombstones that drains
// skip. maxSeq tracks the largest sequence key ever appended since the
// last reset: an append below it marks the bucket dirty, and a dirty
// bucket re-sorts its pending suffix by seq before draining, so fire order
// within the cycle is always exactly ascending seq — the same total
// (deadline, sequence) order the heap produces.
type wheelBucket struct {
	evs    []*Event
	head   int
	live   int // non-tombstone entries at index >= head
	maxSeq uint64
	dirty  bool
}

// reset clears a fully drained bucket, keeping the slice capacity.
func (b *wheelBucket) reset() {
	b.evs = b.evs[:0]
	b.head = 0
	b.maxSeq = 0
	b.dirty = false
}

// sortPending compacts the tombstones out of evs[head:] and insertion-sorts
// the survivors by sequence key (unique per engine, so the sort is a total
// order). Buckets are almost always already sorted — only barrier-phase
// AtHandlerSeq insertions and overflow promotions can append out of order —
// so insertion sort on the nearly-sorted suffix is the right tool.
func (b *wheelBucket) sortPending() {
	evs := b.evs
	j := b.head
	for i := b.head; i < len(evs); i++ {
		if evs[i] != nil {
			evs[j] = evs[i]
			j++
		}
	}
	for i := j; i < len(evs); i++ {
		evs[i] = nil
	}
	b.evs = evs[:j]
	for i := b.head + 1; i < j; i++ {
		ev := evs[i]
		k := i - 1
		for k >= b.head && evs[k].seq > ev.seq {
			evs[k+1] = evs[k]
			k--
		}
		evs[k+1] = ev
	}
	for i := b.head; i < j; i++ {
		evs[i].index = i
	}
	b.dirty = false
}

// wheel is the timing-wheel scheduler: a ring of per-cycle buckets covering
// [base, base+wheelSpan), an occupancy bitmap over the ring (one bit per
// bucket with live events, giving O(1) next-non-empty lookup), and an
// overflow heap for events beyond the horizon. base only advances, and only
// to the deadline of the next live event, so each bucket holds events of
// exactly one cycle and a drain can dispatch the whole bucket as a batch.
type wheel struct {
	base     Time
	count    int // live events in the ring
	buckets  []wheelBucket
	occ      [wheelWords]uint64
	overflow eventHeap
}

func (w *wheel) init() {
	if w.buckets == nil {
		w.buckets = make([]wheelBucket, wheelSpan)
		// Carve every bucket's initial slice out of one shared backing array.
		// Without this, each bucket's first few appends grow a nil slice
		// through the small size classes — over a thousand tiny allocations
		// per engine. Eight slots cover typical per-cycle occupancy; busier
		// buckets grow past their carve and keep the larger capacity across
		// resets.
		const carve = 8
		backing := make([]*Event, int(wheelSpan)*carve)
		for i := range w.buckets {
			w.buckets[i].evs = backing[i*carve : i*carve : (i+1)*carve]
		}
	}
}

func (w *wheel) setOcc(idx int)   { w.occ[idx>>6] |= 1 << uint(idx&63) }
func (w *wheel) clearOcc(idx int) { w.occ[idx>>6] &^= 1 << uint(idx&63) }

// schedule files a stamped event into the tier its deadline selects. The
// caller guarantees ev.at >= engine now >= w.base.
func (w *wheel) schedule(ev *Event) {
	if ev.at-w.base >= wheelSpan {
		ev.loc = locOverflow
		w.overflow.push(ev)
		return
	}
	w.ringInsert(ev)
}

func (w *wheel) ringInsert(ev *Event) {
	idx := int(ev.at) & wheelMask
	b := &w.buckets[idx]
	if ev.seq < b.maxSeq {
		b.dirty = true
	} else {
		b.maxSeq = ev.seq
	}
	ev.index = len(b.evs)
	ev.loc = locRing
	b.evs = append(b.evs, ev)
	b.live++
	w.count++
	w.setOcc(idx)
}

// remove cancels a pending event: ring events become nil tombstones
// (skipped and reclaimed when their bucket drains or re-sorts), overflow
// events leave the heap immediately. O(1) for the ring hot path.
func (w *wheel) remove(ev *Event) {
	if ev.loc == locOverflow {
		w.overflow.removeAt(ev.index)
		return
	}
	idx := int(ev.at) & wheelMask
	b := &w.buckets[idx]
	b.evs[ev.index] = nil
	ev.index = -1
	b.live--
	w.count--
	if b.live == 0 {
		// Nothing but tombstones left: retire the bucket now rather than at
		// its next drain, so cancel-heavy patterns (retry timers cancelled on
		// success) do not grow bucket slices without bound. Safe even when
		// this bucket is mid-drain — the drain loop re-reads head/len every
		// iteration and exits cleanly on the emptied slice.
		b.reset()
		w.clearOcc(idx)
	}
}

// promote refills the ring with overflow events that now fall inside the
// horizon. Each event is promoted at most once (base is monotone), so the
// overflow tier costs O(log m) amortized per far-future event.
func (w *wheel) promote() {
	for len(w.overflow) > 0 && w.overflow[0].at-w.base < wheelSpan {
		w.ringInsert(w.overflow.pop())
	}
}

// next returns the earliest pending deadline without advancing the clock
// base past it. The occupancy bitmap makes the ring scan a handful of word
// tests, which is what lets guarded runs and the sharded window barrier
// probe the next deadline cheaply and jump over dead cycles.
func (w *wheel) next() (Time, bool) {
	w.promote()
	if w.count > 0 {
		return w.scanFrom(w.base), true
	}
	if len(w.overflow) > 0 {
		return w.overflow[0].at, true
	}
	return 0, false
}

// scanFrom locates the first occupied bucket at or after cycle from; the
// caller guarantees the ring is non-empty and every live event is >= from.
func (w *wheel) scanFrom(from Time) Time {
	start := int(from) & wheelMask
	wi, off := start>>6, uint(start&63)
	if word := w.occ[wi] >> off; word != 0 {
		return from + Time(bits.TrailingZeros64(word))
	}
	for i := 1; i <= wheelWords; i++ {
		idx := (wi + i) & (wheelWords - 1)
		word := w.occ[idx]
		if i == wheelWords {
			word &= 1<<off - 1 // wrapped back into the start word
		}
		if word != 0 {
			bit := idx<<6 + bits.TrailingZeros64(word)
			return from + Time((bit-start)&wheelMask)
		}
	}
	panic("sim: wheel occupancy bitmap inconsistent with live count")
}

// advance moves the wheel epoch to t, the deadline about to execute, and
// pulls newly in-horizon overflow events into the ring. Jumping base
// straight to t is the dead-cycle skip: empty cycles between the old and
// new base are never visited.
func (w *wheel) advance(t Time) {
	w.base = t
	w.promote()
}

// --- engine run loops over the wheel ---

// stepWheel executes the single earliest pending action — scheduled event
// or parked pend, whichever comes first in (deadline, sequence) order.
func (e *Engine) stepWheel() bool {
	w := &e.wh
	t, ok := w.next()
	if !ok {
		if e.pq.count == 0 {
			return false
		}
		e.firePend()
		return true
	}
	if e.pq.minAt < t {
		e.firePend()
		return true
	}
	w.advance(t)
	idx := int(t) & wheelMask
	b := &w.buckets[idx]
	if b.dirty {
		b.sortPending()
	}
	for b.head < len(b.evs) && b.evs[b.head] == nil {
		b.head++
	}
	if b.head >= len(b.evs) {
		panic("sim: wheel bucket live count inconsistent")
	}
	ev := b.evs[b.head]
	// A same-cycle pend with an earlier sequence key dispatches first: the
	// parked continuation holds exactly the queue position its event-mode
	// twin would have occupied.
	if e.pq.minAt == t && e.pq.minSeq < ev.seq {
		e.firePend()
		return true
	}
	b.evs[b.head] = nil
	b.head++
	b.live--
	w.count--
	e.fire(ev, t)
	// live == 0 means everything after head is a tombstone (the callback may
	// have re-populated the bucket, so check after the fire): retire the
	// bucket now, or a later probe would report this dead cycle as pending.
	if b.live == 0 {
		b.reset()
		w.clearOcc(idx)
	}
	return true
}

// runWheel executes pending actions — scheduled events and parked pends —
// with deadlines at or before e.runLimit, using per-cycle batch dispatch:
// each iteration advances the clock directly to the next non-empty cycle
// and drains it in full (deadline, sequence) order. Events a callback
// schedules for the current cycle append to the draining bucket with
// strictly larger sequence keys (engine numbering is monotone within a
// cycle), so the drain order remains exactly ascending. The limit is
// re-read per cycle so ClampRunLimit can end the run early at the next
// cycle boundary.
//
// Pends interleave with bucket events by sequence key, so the merged order
// is bit-identical to the all-events schedule; a chain of pends strictly
// below the next event cycle dispatches back-to-back without re-probing
// the occupancy bitmap as long as it schedules nothing.
//
// On top of the per-bucket drain sits the event-batch fast path: a run of
// consecutive pending events sharing one BatchHandler is collected and
// delivered through a single OnEvents call — one controller entry per
// (cycle, handler) instead of one virtual dispatch per event.
//
// The return value is the next pending deadline past the limit (Forever
// when everything drained) — the exit probe doubles as the follow-up
// NextEventTime the windowed driver would otherwise repeat.
//
// An armed end-of-cycle hook runs as soon as the cycle is over: right after
// a drained bucket when nothing else is parked at its cycle, so the next
// probe already sees what the hook scheduled, and otherwise as soon as the
// probe finds nothing left in the current cycle, before any later action
// and before any return, followed by a fresh probe.
func (e *Engine) runWheel() Time {
	w := &e.wh
	for {
		t, ok := w.next()
		if !ok {
			t = Forever
		}
		if e.hookArmed && (min(t, e.pq.minAt) > e.now || !ok && e.pq.count == 0) {
			e.runHook()
			continue
		}
		if e.pq.minAt < t {
			// A whole cohort of pends precedes every scheduled event: batch-
			// dispatch the cycle's slot list, then re-probe (a dispatch may
			// have scheduled an event below the old next deadline — a miss
			// books its send one cycle out).
			if e.pq.minAt > e.runLimit {
				return e.pq.minAt
			}
			e.fireSlot()
			continue
		}
		if !ok {
			return Forever
		}
		if t > e.runLimit {
			return t
		}
		w.advance(t)
		idx := int(t) & wheelMask
		b := &w.buckets[idx]
		for b.head < len(b.evs) {
			if b.dirty {
				b.sortPending()
			}
			ev := b.evs[b.head]
			if ev == nil {
				b.head++
				continue
			}
			// A same-cycle pend with an earlier sequence key dispatches
			// first: the parked continuation holds exactly the queue
			// position its event-mode twin would have occupied.
			if e.pq.minAt == t && e.pq.minSeq < ev.seq {
				e.firePendRun(t, ev.seq)
				continue
			}
			b.evs[b.head] = nil
			b.head++
			b.live--
			w.count--
			// The BatchHandler assertion comes first: it guarantees ev.h has
			// a comparable (pointer-shaped) dynamic type, so the handler
			// identity tests below cannot panic on func-typed handlers.
			if bh, ok := ev.h.(BatchHandler); ok && b.head < len(b.evs) {
				if nxt := b.evs[b.head]; nxt != nil && nxt.h == ev.h {
					e.fireBatch(bh, ev, b, t)
					continue
				}
			}
			e.fire(ev, t)
		}
		// Pends of this cycle sequenced after its last event. A dispatch
		// could repopulate the bucket; the loop guard hands control back to
		// the event drain if one does (the outer loop re-enters this cycle).
		for e.pq.minAt == t && b.head >= len(b.evs) {
			e.firePendTail(t)
		}
		if b.head < len(b.evs) {
			continue
		}
		b.reset()
		if b.live == 0 {
			w.clearOcc(idx)
		}
		if e.hookArmed {
			// Bucket drained and no pend left at t: cycle t is over.
			e.runHook()
		}
	}
}

// fireBatch advances the clock to t and delivers first plus every
// immediately following pending event sharing its handler through one
// OnEvents call. The caller has already detached first from the bucket.
//
// The batch preserves the exact (deadline, sequence) total order: the
// collected run is a contiguous ascending-seq prefix of the bucket's
// remaining events (the bucket was sorted if dirty, and no callback runs
// during collection), OnEvents processes args in that order, and anything a
// callback schedules for the current cycle appends behind the run with a
// strictly larger sequence key. Collection also stops below a same-cycle
// parked pend's sequence key — in the all-events schedule the pend's twin
// would have split the run there — and at a cancelled-event tombstone,
// which the outer drain loop then skips as usual. Every event is recycled
// before the handler runs, matching fire's contract.
func (e *Engine) fireBatch(bh BatchHandler, first *Event, b *wheelBucket, t Time) {
	if first.at != t {
		panic(fmt.Sprintf("sim: wheel bucket holds event at %d in cycle %d", first.at, t))
	}
	w := &e.wh
	h := first.h
	pendSeq := ^uint64(0)
	if e.pq.minAt == t {
		pendSeq = e.pq.minSeq
	}
	batch := append(e.batch[:0], first.arg)
	first.index = -1
	e.release(first)
	for b.head < len(b.evs) {
		ev := b.evs[b.head]
		if ev == nil || ev.h != h || ev.seq > pendSeq {
			break
		}
		b.evs[b.head] = nil
		b.head++
		b.live--
		w.count--
		ev.index = -1
		batch = append(batch, ev.arg)
		e.release(ev)
	}
	e.batch = batch
	e.queued -= len(batch)
	e.now = t
	e.processed += uint64(len(batch))
	bh.OnEvents(batch)
}

// fire advances the clock to t and executes ev, recycling it first so the
// callback can immediately schedule into the freed slot.
func (e *Engine) fire(ev *Event, t Time) {
	if ev.at != t {
		panic(fmt.Sprintf("sim: wheel bucket holds event at %d in cycle %d", ev.at, t))
	}
	ev.index = -1
	e.queued--
	e.now = t
	e.processed++
	fn, h, arg := ev.fn, ev.h, ev.arg
	e.release(ev)
	if h != nil {
		h.OnEvent(arg)
	} else {
		fn()
	}
}

// --- binary min-heap over (at, seq) ---
//
// eventHeap is the shared heap implementation: the SchedHeap scheduler's
// whole queue, and the wheel's overflow tier. It maintains Event.index as
// the heap position so cancellation can remove by handle.

type eventHeap []*Event

// less orders events by deadline, ties broken by sequence key.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventHeap) push(ev *Event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.siftUp(ev.index)
}

func (q *eventHeap) pop() *Event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		q.siftDown(0)
	}
	top.index = -1
	return top
}

// removeAt deletes the event at heap position i.
func (q *eventHeap) removeAt(i int) {
	h := *q
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	*q = h[:n]
	if i != n {
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
	ev.index = -1
}

func (q eventHeap) siftUp(i int) {
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// siftDown moves the event at i toward the leaves; it reports whether the
// event moved.
func (q eventHeap) siftDown(i int) bool {
	n := len(q)
	ev := q[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && less(q[r], q[child]) {
			child = r
		}
		if !less(q[child], ev) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = ev
	ev.index = i
	return i > start
}

// --- pend queue: near-future ring + overflow heap over parked pends ---
//
// pendQueue orders the engine's parked inline continuations by (deadline,
// sequence), the same total order the event queue uses. Pends are the
// hottest object in the simulator — every fused pipeline step parks one —
// so the structure is built for O(1) park and pop: a 64-slot ring of
// intrusive FIFO lists indexed by deadline (slot = at mod 64), a one-word
// occupancy bitmap, and a cached minimum so the drain loops' precedence
// checks are two loads. Slot aliasing is impossible: a processor pend
// parks at most ContextSwitch+TrapEntry+compute-slice cycles out, far
// inside the 64-cycle window, and anything parked at or beyond now+64
// waits in the overflow heap instead (compared against the ring head on
// every refresh, so order is still exact).
//
// Tail-append keeps each slot list in ascending sequence order: the engine
// allocates sequence keys monotonically in wall-execution order (per cycle
// in windowed mode, globally otherwise), and a slot only holds pends of
// one deadline, parked at engine times ≤ that deadline.
type pendQueue struct {
	count  int
	minAt  Time   // earliest parked deadline; Forever when empty
	minSeq uint64 // sequence key of the earliest pend
	minP   *Pend  // the earliest pend itself
	occ    uint64 // one bit per ring slot with a non-empty list
	ring   [pendSlots]pendSlot
	over   pendHeap // deadlines >= pendSlots cycles out (trap-backlogged pipes)
}

const pendSlots = 64

// pendSlot is one deadline's FIFO list of parked pends (ascending seq).
type pendSlot struct {
	head, tail *Pend
}

// park files a stamped pend. now is the engine clock, which bounds every
// live ring deadline into [now, now+pendSlots-1] and so keeps slot
// indexing collision-free.
func (q *pendQueue) park(now Time, p *Pend) {
	q.count++
	if p.at-now < pendSlots {
		i := int(p.at) & (pendSlots - 1)
		s := &q.ring[i]
		if s.tail == nil {
			s.head = p
			q.occ |= 1 << uint(i)
		} else {
			s.tail.next = p
		}
		s.tail = p
		p.index = i
		p.loc = locRing
	} else {
		p.loc = locOverflow
		q.over.push(p)
	}
	if p.at < q.minAt || (p.at == q.minAt && p.seq < q.minSeq) {
		q.minAt, q.minSeq, q.minP = p.at, p.seq, p
	}
}

// popMin unlinks and returns the earliest parked pend. The caller
// guarantees the queue is non-empty.
func (q *pendQueue) popMin() *Pend {
	p := q.minP
	q.count--
	if p.loc == locRing {
		i := int(p.at) & (pendSlots - 1)
		s := &q.ring[i]
		s.head = p.next
		if s.head == nil {
			s.tail = nil
			q.occ &^= 1 << uint(i)
		}
		p.next = nil
	} else {
		q.over.pop()
	}
	p.index = -1
	q.refreshMin(p.at)
	return p
}

// refreshMin recomputes the cached minimum after a pop. now is the popped
// pend's deadline: every surviving ring pend lies in [now, now+pendSlots-1]
// (it was parked at an engine time <= now, within the window), so rotating
// the occupancy word to put now's slot at bit 0 turns circular slot order
// into deadline order and TrailingZeros finds the earliest non-empty list.
func (q *pendQueue) refreshMin(now Time) {
	if q.count == 0 {
		q.minAt, q.minSeq, q.minP = Forever, 0, nil
		return
	}
	if q.occ != 0 {
		off := int(now) & (pendSlots - 1)
		w := bits.RotateLeft64(q.occ, -off)
		i := (off + bits.TrailingZeros64(w)) & (pendSlots - 1)
		p := q.ring[i].head
		if len(q.over) > 0 && pendLess(q.over[0], p) {
			p = q.over[0]
		}
		q.minAt, q.minSeq, q.minP = p.at, p.seq, p
		return
	}
	p := q.over[0]
	q.minAt, q.minSeq, q.minP = p.at, p.seq, p
}

// detachMinSlot unlinks and returns the entire slot list holding the cached
// minimum, which the caller guarantees lives in the ring. Every pend in the
// list shares the minimum deadline (a slot holds exactly one deadline
// inside the window) in ascending sequence order. The walk that sizes the
// list also warms the nodes the caller is about to dispatch.
func (q *pendQueue) detachMinSlot() *Pend {
	i := q.minP.index
	s := &q.ring[i]
	head := s.head
	s.head, s.tail = nil, nil
	q.occ &^= 1 << uint(i)
	n := 0
	for p := head; p != nil; p = p.next {
		n++
	}
	q.count -= n
	q.refreshMin(q.minAt)
	return head
}

// pendHeap is the pend queue's overflow tier: a binary min-heap over
// (deadline, sequence) for the rare pend parked at or beyond the ring
// window. It maintains Pend.index as the heap position.

type pendHeap []*Pend

func pendLess(a, b *Pend) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *pendHeap) push(p *Pend) {
	p.index = len(*q)
	*q = append(*q, p)
	q.siftUp(p.index)
}

func (q *pendHeap) pop() *Pend {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		q.siftDown(0)
	}
	top.index = -1
	return top
}

func (q pendHeap) siftUp(i int) {
	p := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !pendLess(p, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = p
	p.index = i
}

func (q pendHeap) siftDown(i int) {
	n := len(q)
	p := q[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && pendLess(q[r], q[child]) {
			child = r
		}
		if !pendLess(q[child], p) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = p
	p.index = i
}
