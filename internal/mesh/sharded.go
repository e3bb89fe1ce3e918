package mesh

import (
	"fmt"
	"sync"

	"limitless/internal/sim"
)

// The port and the canonical claim order. The controllers inject through
// the network's one ShardPort: purely local (src == dst) deliveries stay
// on the engine, and every packet between distinct nodes is deferred into
// the port's send log. The port arms its engine's end-of-cycle hook, and
// the hook's FlushWindow replays the cycle's deferred sends in canonical
// (send cycle, source node, per-source program order) through the
// contention model (channels, ejection ports, fault delays), then inserts the
// delivery events into the engine. The deliveries take the engine's own
// next sequence numbers, which order them after every event allocated
// during the send cycle and before any allocated during a later one.
//
// The canonical order is what the timing depends on: the channel and
// ejection resources and the transport's link table are touched only by
// the flush, in an order derived from quantities the
// model fixes (send cycle, source, program order) rather than from the
// order in which same-cycle events happened to run.
//
// Every flush claims every logged send. The hook flushes at the end of the
// send cycle, so every logged send lies below its barrier (the cycle
// after); a send at or past the barrier means the engine ran beyond it,
// and FlushWindow panics rather than claim it out of order. A caller that
// drives the flush itself — a model checker choosing which logged send to
// deliver next — must keep to the same rule.

// deferredSend is one logged injection awaiting the flush. It doubles as
// the reliable transport's attempt record: retransmissions rejoin the log
// carrying their assigned sequence number, the original departure cycle
// (first), the attempt count, and the attempt kind.
type deferredSend struct {
	at       sim.Time
	src, dst NodeID
	flits    int
	payload  any
	seq      uint64   // per-link sequence number (transport only)
	first    sim.Time // departure cycle of the first attempt (transport only)
	attempt  int32    // 0 for the first attempt, k for the k-th retransmission
	kind     uint8    // xFirst, xRetrans, or xReplay
}

// sendLog holds the port's deferred sends, appended in engine-time order
// since the last flush; when an append lands before its predecessor (a
// lower source in the same cycle), sortPending restores full (cycle, src,
// program-order) order with a stable insertion sort — near-linear on the
// almost-sorted log.
type sendLog []deferredSend

// before orders log entries by (send cycle, source node).
func (e *deferredSend) before(o *deferredSend) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.src < o.src
}

func (l sendLog) sortPending() {
	for i := 1; i < len(l); i++ {
		if !l[i].before(&l[i-1]) {
			continue
		}
		e := l[i]
		j := i - 1
		for j >= 0 && e.before(&l[j]) {
			l[j+1] = l[j]
			j--
		}
		l[j+1] = e
	}
}

// ShardPort is the engine's interface to the network: every node's
// controllers send through it, and it delivers their incoming packets. It
// is bound to the engine and may only be used from the goroutine running
// it.
type ShardPort struct {
	nw       *Network
	eng      *sim.Engine
	handlers []Handler // the network's, shared: Register fills them in
	wakers   []Waker   // the network's, shared: SetWaker fills them in

	stats    Stats
	log      sendLog
	logDirty bool // true when an append since the last flush landed out of order
	freeDels []*delivery
	inflight int // deliveries scheduled on the engine, not yet ejected

	// spare holds the payloads whose packets have made their last
	// delivery, for Spare to hand to the next sender.
	spare []any

	// Reliable transport (see transport.go): the receiver state, the
	// pending retransmission-timer count, and the pooled attempt records
	// (allocated by the flush, freed when the timer fires).
	xr             *xrecv
	pendingRetrans int
	freeRetrans    []*deferredSend
	retransH       portRetrans
}

// Stats returns this port's share of the network statistics.
func (p *ShardPort) Stats() Stats { return p.stats }

// SendFrom injects a packet from node src at the engine's current cycle.
// Local deliveries are scheduled immediately on the engine; everything else
// is logged for FlushWindow. The payload reaches the destination's handler;
// the packet around it is the network's own. SendFrom takes ownership of
// the payload: the sender must not touch it again, and once the packet's
// last delivery returns (or the receiver discards it) the port puts it on
// the spare list Spare draws from.
func (p *ShardPort) SendFrom(src, dst NodeID, flits int, payload any) {
	if flits <= 0 {
		panic("mesh: packet with no flits")
	}
	nw := p.nw
	if uint(src) >= uint(nw.n) || uint(dst) >= uint(nw.n) {
		panic(fmt.Sprintf("mesh: packet endpoints out of range: %d->%d", src, dst))
	}
	now := p.eng.Now()
	if src == dst {
		p.stats.LocalPackets++
		p.deliver(p.newDelivery(src, dst, flits, payload, now), now+LocalLatency)
		return
	}
	e := p.logSend(now, src)
	e.dst, e.flits, e.payload = dst, flits, payload
	e.seq, e.first, e.attempt, e.kind = 0, 0, 0, xFirst
}

// Spare returns a payload whose packet has made its last delivery, for
// the caller to refill and send, or nil when none is spare. It may be of
// any type a sender has sent through the port.
func (p *ShardPort) Spare() any {
	n := len(p.spare)
	if n == 0 {
		return nil
	}
	pl := p.spare[n-1]
	p.spare[n-1] = nil
	p.spare = p.spare[:n-1]
	return pl
}

// logSend appends a slot for one non-local attempt sent by src at cycle at
// to the send log; the caller fills in the rest of the slot. It arms the
// engine's end-of-cycle hook, so the attempt is claimed once its send cycle
// has run.
func (p *ShardPort) logSend(at sim.Time, src NodeID) *deferredSend {
	n := len(p.log)
	if n > 0 {
		if last := &p.log[n-1]; at < last.at || at == last.at && src < last.src {
			p.logDirty = true
		}
	}
	if n < cap(p.log) {
		p.log = p.log[:n+1]
	} else {
		p.log = append(p.log, deferredSend{})
	}
	p.eng.ArmCycleHook()
	e := &p.log[n]
	e.at, e.src = at, src
	return e
}

// newDelivery borrows a pooled delivery record for a packet injected at
// cycle injected, with plain framing; the reliable transport sets its own.
func (p *ShardPort) newDelivery(src, dst NodeID, flits int, payload any, injected sim.Time) *delivery {
	var d *delivery
	if n := len(p.freeDels); n > 0 {
		d = p.freeDels[n-1]
		p.freeDels[n-1] = nil
		p.freeDels = p.freeDels[:n-1]
	} else {
		d = &delivery{}
	}
	d.pkt.Src, d.pkt.Dst, d.pkt.Flits, d.pkt.Payload = src, dst, flits, payload
	d.injected = injected
	d.kind = dPlain
	return d
}

// deliver queues d's ejection at cycle at on the engine. An off-queue
// spin at the destination first settles through the current cycle and
// rejoins the queue (SetWaker): in a flush its next step was drawn in the
// send cycle or earlier, so it must sort ahead of the delivery.
func (p *ShardPort) deliver(d *delivery, at sim.Time) {
	p.inflight++
	if w := p.wakers[d.pkt.Dst]; w != nil {
		w.Wake(p.eng.Now())
	}
	p.eng.AtHandler(at, p, d)
}

// SetWaker installs w, node id's processor, as the owner of an off-queue
// spin the network must wake: before the port inserts a delivery to the
// node, w settles the spin through the current cycle and returns it
// to the queue, so the spin's next step keeps its place ahead of the
// delivery; and each delivery wakes it before any receiver code runs. The
// wake belongs to the network rather than to the registered handler, which
// a caller may replace.
func (p *ShardPort) SetWaker(id NodeID, w Waker) { p.wakers[id] = w }

// OnEvent implements sim.Handler: it ejects one packet at its destination.
// A spin off the queue at the destination rejoins it before any receiver
// code runs. Sequenced deliveries detour through the port's receiver
// transport state (checksum, per-link order, duplicate detection);
// everything else releases directly.
func (p *ShardPort) OnEvent(arg any) {
	d := arg.(*delivery)
	if w := p.wakers[d.pkt.Dst]; w != nil {
		w.Wake(p.eng.Now() - 1)
	}
	p.inflight--
	if d.kind == dSeq {
		p.xr.receive(p, d, p.eng.Now())
		return
	}
	p.finishX(d, p.eng.Now(), false)
}

// portMem is the run-scoped memory a network and its port hand to the
// next ones (see Network.Recycle): the per-node arrays, the send log's
// backing array, the free delivery and retransmission records, the spare
// payloads, and the link table and hold buffer. While a network runs, its
// wrapper holds only what the network did not take.
type portMem struct {
	handlers            []Handler
	wakers              []Waker
	chans, eject, omega []sim.Resource

	log     sendLog
	dels    []*delivery
	retrans []*deferredSend
	spare   []any

	linkIdx   map[uint64]int32
	links     []link
	held      map[int32][]heldDel
	spareHeld [][]heldDel
}

var portPool sync.Pool

// FlushWindow applies every deferred send; each must have a send cycle
// strictly below before, the barrier, or FlushWindow panics naming the
// send. The end-of-cycle hook calls it with the cycle after the sends'
// own. The log is restored to (send cycle, source, program order) with a
// near-linear stable insertion sort, then drained in that order through
// the contention model, each claim inserting its delivery into the engine.
func (nw *Network) FlushWindow(before sim.Time) {
	p := nw.port
	if p.logDirty {
		p.log.sortPending()
		p.logDirty = false
	}
	if n := len(p.log); n > 0 && p.log[n-1].at >= before {
		nw.barrierPanic(&p.log[n-1], before)
	}
	for i := 0; i < len(p.log); i++ {
		p.claim(&p.log[i])
	}
	p.log = p.log[:0]
}

// claim replays one logged attempt through the contention model and
// inserts the delivery, and under the reliable transport the follow-up
// attempt, into the engine. Every delivery must land at least one
// lookahead after its send — the latency floor the transport's
// retransmit timeout and any caller driving the flush rely on — and a
// violation panics rather than silently corrupting the timing model.
func (p *ShardPort) claim(e *deferredSend) {
	nw := p.nw
	at := nw.claimPath(e.at, e.src, e.dst, e.flits)
	if at < e.at+nw.lookahead {
		nw.lookaheadPanic(e, at)
	}
	if nw.tp != nil {
		nw.flushX(e, p, at)
	} else {
		p.deliver(p.newDelivery(e.src, e.dst, e.flits, e.payload, e.at), at)
	}
	e.payload = nil // consumed entries keep no references
}
