package sim

import "math/bits"

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
	// and pop; per-cycle bucket drains; dead-cycle skipping).
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
// exactly one cycle and a drain can fire the whole bucket in one pass.
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
	if len(b.evs) == cap(b.evs) {
		b.grow()
	}
	b.evs = append(b.evs, ev)
	b.live++
	w.count++
	w.setOcc(idx)
}

// grow moves a full bucket's slots to an array of twice the size and
// clears the ones it leaves. The array left behind may be the carve that
// init shares among every bucket, which stays reachable — pooled with the
// buckets across machines — as long as one bucket still uses it, so a
// pointer left in it would keep a finished machine alive through any pend
// event it names.
func (b *wheelBucket) grow() {
	evs := make([]*Event, len(b.evs), 2*cap(b.evs))
	copy(evs, b.evs)
	clear(b.evs)
	b.evs = evs
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

// stepWheel executes the single earliest pending event.
func (e *Engine) stepWheel() bool {
	w := &e.wh
	t, ok := w.next()
	if !ok {
		return false
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

// runWheel executes pending events, parked pends included, with deadlines
// at or before e.runLimit: each iteration advances the clock directly to
// the next non-empty cycle and drains its bucket in full (deadline,
// sequence) order. Events a callback schedules for the current cycle append
// to the draining bucket with strictly larger sequence keys (engine
// numbering is monotone within a cycle), so the drain order remains exactly
// ascending. The limit is re-read per cycle so ClampRunLimit can end the
// run early at the next cycle boundary.
//
// The return value is the next pending deadline past the limit (Forever
// when everything drained) — the exit probe doubles as the follow-up
// NextEventTime the windowed driver would otherwise repeat.
//
// An armed end-of-cycle hook runs as soon as the cycle is over: right after
// its bucket drains, so the next probe already sees what the hook
// scheduled, or, for a hook armed outside a drain, as soon as the probe
// finds nothing left in the current cycle, before any later event and
// before any return, followed by a fresh probe.
func (e *Engine) runWheel() Time {
	w := &e.wh
	for {
		t, ok := w.next()
		if !ok {
			t = Forever
		}
		if e.hookArmed && t > e.now {
			e.runHook()
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
			b.evs[b.head] = nil
			b.head++
			b.live--
			w.count--
			e.fire(ev, t)
		}
		b.reset()
		if b.live == 0 {
			w.clearOcc(idx)
		}
		if e.hookArmed {
			// Bucket drained: cycle t is over.
			e.runHook()
		}
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
