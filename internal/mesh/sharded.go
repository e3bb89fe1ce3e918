package mesh

import (
	"fmt"
	"sync"

	"limitless/internal/sim"
)

// Ports and the canonical claim order. Each engine's controllers inject
// through that engine's ShardPort: purely local (src == dst) deliveries stay
// on the engine, and every packet between distinct nodes — whether or not
// the destination runs on the same engine — is deferred into the port's
// send log. FlushWindow replays deferred sends in one canonical order
// through the shared contention model (channels, ejection ports, jitter),
// then inserts the delivery events into the destination engines.
//
// Deferring *all* non-local traffic, not just boundary crossings, is what
// makes the simulation invariant under the engine count: the channel and
// ejection resources, the jitter stream, and the FIFO bookkeeping are only
// ever touched by a single-threaded flush, in an order derived from (send
// cycle, source node, per-source program order) — quantities that do not
// depend on how nodes are partitioned. With several engines the flush runs
// at the window barriers and stamps each delivery with a cycle-tagged
// barrier key (sim.WindowSeq). With one engine the port arms the engine's
// end-of-cycle hook instead, which flushes the cycle's sends as soon as the
// cycle's last event has run; the deliveries then take the engine's own
// next sequence numbers, which order them exactly where the barrier keys
// would: after every event allocated during the send cycle, before any
// allocated during a later one. Both builds therefore give one timing.
//
// Every flush claims every logged send. A window runs each engine only to
// the cycle before its barrier, and the one-engine hook flushes at the end
// of the send cycle, so every logged send lies below the barrier; a send at
// or past it means a driver ran an engine beyond its window, and
// FlushWindow panics rather than claim it out of order.

// deferredSend is one logged injection awaiting a window barrier. It doubles
// as the reliable transport's attempt record: retransmissions rejoin the
// source shard's log carrying their assigned sequence number, the original
// departure cycle (first), the attempt count, and the attempt kind.
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

// sendLog holds one port's deferred sends, appended in engine-time order
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

// ShardPort is one engine's interface to the network: the controllers of
// the nodes that engine runs send through it, and it delivers their
// incoming packets. It is bound to its engine and may only be used from the
// goroutine currently executing that engine.
type ShardPort struct {
	nw       *Network
	eng      *sim.Engine
	handlers []Handler // the network's, shared: Register fills them in
	wakers   []Waker   // the network's, shared: SetWaker fills them in
	shard    int
	solo     bool // the network's only port: flushed by its engine's end-of-cycle hook

	stats    Stats
	log      sendLog
	logHead  int  // the flush's merge cursor: entries below it are claimed; 0 between flushes
	logDirty bool // true when an append since the last flush landed out of order
	freeDels []*delivery
	mem      *portMem // the pool wrapper ShardPorts drew, reused by Network.Recycle
	inflight int      // deliveries scheduled on this port's engine, not yet ejected

	// Reliable transport (see transport.go): the receiver state for nodes
	// owned by this shard, the pending retransmission-timer count, and the
	// pooled attempt records (allocated at flush barriers, freed when the
	// timer fires on this shard — the phases never overlap).
	xr             *xrecv
	pendingRetrans int
	freeRetrans    []*deferredSend
	retransH       portRetrans
}

// Engine returns the shard engine this port is bound to.
func (p *ShardPort) Engine() *sim.Engine { return p.eng }

// Stats returns this port's share of the network statistics.
func (p *ShardPort) Stats() Stats { return p.stats }

// SendFrom injects a packet from a node this port's engine runs, at the
// engine's current cycle. Local deliveries are scheduled immediately on the
// engine; everything else is logged for FlushWindow. The payload reaches
// the destination's handler; the packet around it is the network's own.
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
		p.deliver(p.newDelivery(src, dst, flits, payload, now), now+nw.cfg.LocalLatency, 0, false)
		return
	}
	e := p.logSend(now, src)
	e.dst, e.flits, e.payload = dst, flits, payload
	e.seq, e.first, e.attempt, e.kind = 0, 0, 0, xFirst
}

// logSend appends a slot for one non-local attempt sent by src at cycle at
// to the send log; the caller fills in the rest of the slot. The network's
// only port arms its engine's end-of-cycle hook, so the attempt is claimed
// once its send cycle has run; any other port's sends wait for the window
// barrier.
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
	if p.solo {
		p.eng.ArmCycleHook()
	}
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

// deliver queues d's ejection at cycle at on this port's engine — under
// the engine's own sequence key, or under the explicit barrier key seq
// when seqKey is set. Under the engine's own key, an off-queue spin at the
// destination first settles through the current cycle and rejoins the
// queue (SetWaker): in a flush its next step was drawn in the send
// cycle or earlier, so it must sort ahead of the delivery.
func (p *ShardPort) deliver(d *delivery, at sim.Time, seq uint64, seqKey bool) {
	p.inflight++
	if seqKey {
		p.eng.AtHandlerSeq(at, seq, p, d)
		return
	}
	if w := p.wakers[d.pkt.Dst]; w != nil {
		w.Wake(p.eng.Now())
	}
	p.eng.AtHandler(at, p, d)
}

// SetWaker installs w, node id's processor, as the owner of an off-queue
// spin the network must wake: before a one-engine port inserts a delivery
// to the node, w settles the spin through the current cycle and returns it
// to the queue, so the spin's next step keeps its place ahead of the
// delivery; and each delivery wakes it before any receiver code runs. The
// wake belongs to the network rather than to the registered handler, which
// a caller may replace.
func (p *ShardPort) SetWaker(id NodeID, w Waker) { p.wakers[id] = w }

// OnEvent implements sim.Handler: it ejects one packet at its destination,
// accounting stats to this port. A spin off the queue at the destination
// rejoins it before any receiver code runs. Sequenced deliveries detour
// through this port's receiver transport state (checksum, per-link order,
// duplicate detection); everything else releases directly.
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

// ShardPorts binds the network to the engines that run its nodes: nodeShard
// maps each node to the index of its engine, window is the lookahead width
// (MinPacketLatency of the smallest message), and the returned ports (one
// per engine) are the controllers' injection interface. Register handlers
// as usual; deliveries invoke them on the destination node's engine. Over
// one engine the port installs that engine's end-of-cycle hook as its
// flush, so the engine runs straight through with no window driver; over
// several, the window driver must call FlushWindow at its barriers, with
// every engine in cycle-tagged sequencing (sim.Engine.SetCycleSeq).
func (nw *Network) ShardPorts(engines []*sim.Engine, nodeShard []int, window sim.Time) []*ShardPort {
	if len(nodeShard) != nw.n {
		panic(fmt.Sprintf("mesh: nodeShard has %d entries for %d nodes", len(nodeShard), nw.n))
	}
	if window < 1 {
		panic(fmt.Sprintf("mesh: shard window %d < 1", window))
	}
	for id, s := range nodeShard {
		if s < 0 || s >= len(engines) {
			panic(fmt.Sprintf("mesh: node %d assigned to shard %d of %d", id, s, len(engines)))
		}
	}
	nw.nodeShard = nodeShard
	nw.window = window
	nw.ports = make([]*ShardPort, len(engines))
	for i, eng := range engines {
		p := &ShardPort{nw: nw, eng: eng, handlers: nw.handlers, wakers: nw.wakers, shard: i}
		if m, _ := portPool.Get().(*portMem); m != nil {
			p.log, p.freeDels = m.log, m.dels
			*m = portMem{}
			p.mem = m
		}
		p.retransH.p = p
		if nw.tp != nil {
			p.xr = newXrecv()
		}
		nw.ports[i] = p
	}
	if len(engines) == 1 {
		eng := engines[0]
		nw.ports[0].solo = true
		eng.SetCycleHook(func() { nw.FlushWindow(eng.Now()+1, nil) })
	}
	return nw.ports
}

// portMem is the run-scoped memory a port hands to the next one: its send
// log's backing array and its free delivery records (see Network.Recycle).
type portMem struct {
	log  sendLog
	dels []*delivery
}

var portPool sync.Pool

// FlushWindow applies every deferred send; each must have a send cycle
// strictly below before, the barrier, or FlushWindow panics naming the
// send. It runs single-threaded — between windows, or from a one-engine
// network's end-of-cycle hook: each port's log is restored to (send cycle,
// source, program order) with a near-linear stable insertion sort, then a
// k-way merge across the per-port logs replays the heads in canonical
// order through the contention model — no combined buffer, no
// comparison-sort of the merged batch — and inserts the resulting
// deliveries into the destination engines. When mins is non-nil, mins[k]
// is lowered to the earliest delivery time inserted into shard k's engine,
// so the window driver can maintain its deadline cache without
// re-probing.
func (nw *Network) FlushWindow(before sim.Time, mins []sim.Time) {
	ports := nw.ports
	for _, p := range ports {
		if p.logDirty {
			p.log.sortPending()
			p.logDirty = false
		}
		if n := len(p.log); n > 0 && p.log[n-1].at >= before {
			nw.barrierPanic(&p.log[n-1], before)
		}
	}
	keyed := len(ports) > 1
	cycle := sim.Time(-1)
	ctr := uint32(0)
	for {
		// One scan over the port heads yields the winner and the runner-up;
		// the winner's log then drains in a tight run for as long as its head
		// stays ahead of the runner-up — consecutive sends from one shard
		// cost one comparison each instead of a K-way rescan.
		var e, second *deferredSend
		var sp *ShardPort
		for _, p := range ports {
			h := p.logHead
			if h >= len(p.log) {
				continue
			}
			c := &p.log[h]
			switch {
			case e == nil || c.before(e):
				e, second, sp = c, e, p
			case second == nil || c.before(second):
				second = c
			}
		}
		if e == nil {
			break
		}
		for {
			sp.logHead++
			if e.at != cycle {
				cycle = e.at
				ctr = 0
			}
			ctr = sp.claim(e, keyed, ctr, mins)
			h := sp.logHead
			if h >= len(sp.log) {
				break
			}
			c := &sp.log[h]
			if second != nil && !c.before(second) {
				break
			}
			e = c
		}
	}
	for _, p := range ports {
		p.log = p.log[:0]
		p.logHead = 0
	}
}

// claim replays one logged attempt from this port through the contention
// model and inserts the delivery, and under the reliable transport the
// follow-up attempt, into the engines that run their nodes. Several engines
// take barrier-phase keys (keyed) counted from ctr, which claim returns
// advanced; one engine numbers them itself. Every delivery must land at
// least one lookahead width after its send — the guarantee that makes
// windowed execution sound — and a violation panics rather than silently
// corrupting the timing model.
func (sp *ShardPort) claim(e *deferredSend, keyed bool, ctr uint32, mins []sim.Time) uint32 {
	nw := sp.nw
	at := nw.claimPath(e.at, e.src, e.dst, e.flits)
	if at < e.at+nw.window {
		nw.lookaheadPanic(e, at)
	}
	if nw.tp != nil {
		ctr = nw.flushX(e, sp, at, keyed, ctr, mins)
	} else {
		var seq uint64
		dp := sp
		if keyed {
			seq = sim.WindowSeq(e.at, true, ctr)
			ctr++
			dp = nw.ports[nw.nodeShard[e.dst]]
		}
		dp.deliver(dp.newDelivery(e.src, e.dst, e.flits, e.payload, e.at), at, seq, keyed)
		if mins != nil && at < mins[dp.shard] {
			mins[dp.shard] = at
		}
	}
	e.payload = nil // consumed entries keep no references
	return ctr
}
