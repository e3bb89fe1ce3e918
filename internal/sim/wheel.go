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
	// SchedWheel is the hierarchical timing wheel (O(1) schedule and pop;
	// per-cycle bucket drains; dead-cycle skipping).
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

// wheelBucket holds every pending event of one cycle. evs[head:] are the
// not-yet-fired slots. Sequence keys only grow and an event joins the
// bucket when its key is drawn, or when the overflow tier promotes it, in
// key order, as soon as its cycle enters the horizon and so before any
// later key for the cycle is drawn. Appends therefore arrive in ascending
// key order, and a bucket drains in the same total (deadline, sequence)
// order the heap produces.
type wheelBucket struct {
	evs  []*Event
	head int
}

// reset clears a fully drained bucket, keeping the slice capacity.
func (b *wheelBucket) reset() {
	b.evs = b.evs[:0]
	b.head = 0
}

// wheel is the timing-wheel scheduler: a ring of per-cycle buckets covering
// [base, base+wheelSpan), an occupancy bitmap over the ring (one bit per
// bucket with pending events, giving O(1) next-non-empty lookup), and an
// overflow heap for events beyond the horizon. base only advances, and only
// to the deadline of the next pending event, so each bucket holds events of
// exactly one cycle and a drain can fire the whole bucket in one pass.
type wheel struct {
	base     Time
	count    int // pending events in the ring
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
		w.overflow.push(ev)
		return
	}
	w.ringInsert(ev)
}

func (w *wheel) ringInsert(ev *Event) {
	idx := int(ev.at) & wheelMask
	b := &w.buckets[idx]
	if len(b.evs) == cap(b.evs) {
		b.grow()
	}
	b.evs = append(b.evs, ev)
	w.count++
	w.setOcc(idx)
}

// grow moves a full bucket's slots to an array of twice the size and
// clears the ones it leaves. The array left behind may be the carve that
// init shares among every bucket, which stays reachable — pooled with the
// buckets across machines — as long as one bucket still uses it, so a
// pointer left in it would keep a finished machine alive through the
// handler and argument of an event still queued when the machine was
// released.
func (b *wheelBucket) grow() {
	evs := make([]*Event, len(b.evs), 2*cap(b.evs))
	copy(evs, b.evs)
	clear(b.evs)
	b.evs = evs
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
// tests, which is what lets guarded runs probe the next deadline cheaply
// and jump over dead cycles.
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
// caller guarantees the ring is non-empty and every pending event is >= from.
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

// runWheel executes pending events with deadlines at or before
// e.runLimit: each iteration advances the clock directly to the next
// non-empty cycle and drains its bucket in full (deadline, sequence)
// order. Events a callback schedules for the current cycle append to the
// draining bucket with strictly larger sequence keys (engine numbering is
// monotone within a cycle), so the drain order remains exactly ascending.
// The limit is re-read per cycle so Abort can end the run at the next
// cycle boundary.
//
// An armed end-of-cycle hook runs as soon as the cycle is over: right after
// its bucket drains, so the next probe already sees what the hook
// scheduled, or, for a hook armed outside a drain, as soon as the probe
// finds nothing left in the current cycle, before any later event and
// before any return, followed by a fresh probe.
func (e *Engine) runWheel() {
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
		if !ok || t > e.runLimit {
			return
		}
		w.advance(t)
		idx := int(t) & wheelMask
		b := &w.buckets[idx]
		for b.head < len(b.evs) {
			ev := b.evs[b.head]
			b.evs[b.head] = nil
			b.head++
			w.count--
			e.fire(ev, t)
		}
		b.reset()
		w.clearOcc(idx)
		if e.hookArmed {
			// Bucket drained: cycle t is over.
			e.runHook()
		}
	}
}

// --- binary min-heap over (at, seq) ---
//
// eventHeap is the shared heap implementation: the SchedHeap scheduler's
// whole queue, and the wheel's overflow tier.

type eventHeap []*Event

// less orders events by deadline, ties broken by sequence key.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventHeap) push(ev *Event) {
	*q = append(*q, ev)
	q.siftUp(len(*q) - 1)
}

func (q *eventHeap) pop() *Event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return top
}

func (q eventHeap) siftUp(i int) {
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// siftDown moves the event at i toward the leaves.
func (q eventHeap) siftDown(i int) {
	n := len(q)
	ev := q[i]
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
		i = child
	}
	q[i] = ev
}
