package mesh

// Reliable transport. When a fault plan enables the loss classes (drop,
// corrupt), the network interposes a reliable-delivery layer between
// injection and ejection: every non-local transmission carries a per-link
// sequence number and a header checksum, lost packets are recovered by
// timeout-driven retransmission with exponential backoff, corrupted packets
// are discarded by the receiver's checksum and resent after a nack
// turnaround, and lost acks provoke a spurious retransmission that the
// receiver identifies by sequence number and hands up marked as a replay
// (the controllers' existing dup suppression absorbs it). Receivers release
// packets to the handlers strictly in per-link sequence order, so the
// coherence protocol keeps the in-order point-to-point delivery it relies
// on even while the link below it is lossy.
//
// Determinism. Loss decisions are stateless hashes of (seed, departure
// cycle, src, dst, seq) — see internal/fault — and sequence numbers are
// assigned in the canonical (send cycle, source, program order) claim
// order. A retransmission is just a later injection replayed through the
// ordinary contention model, so it arrives at least MinPacketLatency after
// its departure: the lookahead bound the flush asserts survives untouched,
// and schedules stay bit-identical across reruns.
//
// Degradation. A packet still unacknowledged after its retransmit budget
// (fault.Config.RetransMax) is abandoned: the transport records a StuckLink
// naming the link, the unacked sequence window, and the attempt count, and
// fires the OnTransportStuck callback so the machine can halt the run with
// a structured diagnostic instead of hanging into the watchdog.

import (
	"fmt"
	"sort"

	"limitless/internal/fault"
	"limitless/internal/sim"
)

// Transmission-attempt kinds (deferredSend.kind).
const (
	xFirst   uint8 = iota // first attempt; verdict assigns the link sequence number
	xRetrans              // timeout/nack-driven retransmission of a lost or corrupted attempt
	xReplay               // spurious retransmission after a lost ack; delivered as a duplicate
)

// Delivery kinds (delivery.kind).
const (
	dPlain uint8 = iota // ordinary delivery, no transport framing
	dSeq                // sequenced delivery; receiver validates checksum and order
)

// xsumMask is XORed into a corrupted packet's checksum: a fixed nonzero
// flip, so corruption detection is deterministic rather than probabilistic.
const xsumMask = 0xA5A5A5A5

// xsum is the transport's header checksum: a 32-bit mix of the fields an
// in-flight corruption would garble. Payloads are Go pointers, not wire
// data, so the model checksums the header the receiver actually validates.
func xsum(src, dst NodeID, flits int, seq uint64) uint32 {
	x := uint64(src)<<48 ^ uint64(dst)<<32 ^ uint64(uint32(flits))<<16 ^ seq*0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return uint32(x)
}

// TransportStats aggregates the reliable transport's activity.
type TransportStats struct {
	Seqs          uint64 // packets entering the transport (first attempts)
	Drops         uint64 // attempts lost in flight
	Corrupts      uint64 // attempts delivered with a corrupted checksum
	Retransmits   uint64 // loss/nack-driven retransmissions sent
	Replays       uint64 // ack-loss replays sent (arrive as duplicates)
	ChecksumDrops uint64 // receiver-side checksum discards (== Corrupts once quiescent)
	DupArrivals   uint64 // receiver-side duplicate arrivals (delivered marked or discarded)
}

// StuckLink describes a packet abandoned after exhausting its retransmit
// budget: the link, the unacked sequence window [Seq, NextSeq), and the
// attempt history.
type StuckLink struct {
	Src, Dst  NodeID
	Seq       uint64   // the abandoned sequence number
	NextSeq   uint64   // next unassigned sequence on the link; [Seq, NextSeq) is unacked
	Attempts  int      // delivery attempts made (first send + retransmissions)
	FirstSent sim.Time // departure cycle of the first attempt
	LastSent  sim.Time // departure cycle of the final attempt
}

// transport is the sender-side reliable-delivery state. It is touched only
// by FlushWindow. Each link's next sequence number lives in the network's
// link table.
type transport struct {
	plan       *fault.Plan
	rto        sim.Time // base retransmit timeout, floored at the lookahead
	backoffMax sim.Time // exponential-backoff cap (Timing.RetryBackoffMax semantics)
	nackLat    sim.Time // corrupt-arrival nack turnaround before the resend departs
	rmax       int      // retransmit budget per packet

	seqs, drops, corrupts, retransmits, replays uint64

	stuck   []StuckLink
	onStuck func(StuckLink)
}

// xverdict is the outcome of one transmission attempt: whether an arrival
// is scheduled (sum is the checksum it carries, possibly corrupted) and
// whether a follow-up attempt departs later.
type xverdict struct {
	deliver bool
	resend  bool
	sum     uint32
	next    deferredSend
}

// verdict decides the fate of attempt e on link l arriving (if it arrives)
// at cycle at. It assigns the sequence number on first attempts and
// accumulates the per-class counters; callers schedule the delivery and/or
// follow-up.
func (tp *transport) verdict(e *deferredSend, at sim.Time, l *link) xverdict {
	if e.kind == xFirst {
		e.seq = l.next
		l.next++
		e.first = e.at
		tp.seqs++
	}
	sum := xsum(e.src, e.dst, e.flits, e.seq)
	switch e.kind {
	case xReplay:
		// A spurious retransmission provoked by a lost ack. Replays are
		// best-effort and never chain (they are not themselves re-faulted);
		// the receiver identifies the duplicate by sequence number.
		tp.replays++
		return xverdict{deliver: true, sum: sum}
	case xRetrans:
		tp.retransmits++
	}
	if tp.plan.Drop(e.at, int(e.src), int(e.dst), e.seq) {
		tp.drops++
		return tp.followUp(e, e.at+tp.backoff(e.attempt), l)
	}
	if tp.plan.Corrupt(e.at, int(e.src), int(e.dst), e.seq) {
		tp.corrupts++
		// Delivered with a broken checksum: the receiver discards it and
		// nacks, so the resend departs one control-message turnaround after
		// the corrupted arrival.
		v := tp.followUp(e, at+tp.nackLat, l)
		v.deliver = true
		v.sum = sum ^ xsumMask
		return v
	}
	v := xverdict{deliver: true, sum: sum}
	if tp.plan.AckLost(e.at, int(e.src), int(e.dst), e.seq) {
		v.resend = true
		v.next = *e
		v.next.kind = xReplay
		v.next.at = e.at + tp.backoff(e.attempt)
		v.next.attempt = e.attempt + 1
	}
	return v
}

// followUp prepares the retransmission of failed attempt e departing at
// depart, or records its link l as stuck when the budget is exhausted.
func (tp *transport) followUp(e *deferredSend, depart sim.Time, l *link) xverdict {
	if int(e.attempt)+1 > tp.rmax {
		s := StuckLink{
			Src: e.src, Dst: e.dst,
			Seq: e.seq, NextSeq: l.next,
			Attempts:  int(e.attempt) + 1,
			FirstSent: e.first, LastSent: e.at,
		}
		tp.stuck = append(tp.stuck, s)
		if tp.onStuck != nil {
			tp.onStuck(s)
		}
		return xverdict{}
	}
	var v xverdict
	v.resend = true
	v.next = *e
	v.next.kind = xRetrans
	v.next.at = depart
	v.next.attempt = e.attempt + 1
	return v
}

// backoff returns the timeout before the retransmission of failing attempt
// k departs: rto doubled per prior failure, capped at backoffMax.
func (tp *transport) backoff(k int32) sim.Time {
	d := tp.rto
	for i := int32(0); i < k; i++ {
		if d >= tp.backoffMax {
			return tp.backoffMax
		}
		d <<= 1
	}
	if d > tp.backoffMax {
		d = tp.backoffMax
	}
	return d
}

// heldDel is one out-of-order arrival parked until the gap below it fills.
type heldDel struct {
	seq uint64
	d   *delivery
}

// xrecv is the receivers' transport state: the out-of-order hold buffer,
// keyed by link index. Each link's expected sequence number lives in the
// network's link table. The buffer holds no entry for a link with nothing
// parked, and the in-order path reads it only while something is parked
// somewhere.
type xrecv struct {
	held    map[int32][]heldDel
	spare   [][]heldDel // emptied hold arrays, reused by the next link to park
	heldNow int         // arrivals currently parked (counted by InFlight)

	csumDrops   uint64
	dupArrivals uint64
}

// newXrecv builds the receiver state on the hold buffer pooled in m, if any.
func newXrecv(m *portMem) *xrecv {
	r := &xrecv{held: m.held, spare: m.spareHeld}
	m.held, m.spareHeld = nil, nil
	if r.held == nil {
		r.held = make(map[int32][]heldDel)
	}
	return r
}

// receive classifies one sequenced arrival: checksum-discard, in-order
// release (plus any consecutive held successors), out-of-order hold, or
// duplicate. Releases happen in strict per-link sequence order.
func (r *xrecv) receive(s *ShardPort, d *delivery, now sim.Time) {
	pkt := &d.pkt
	if d.sum != xsum(pkt.Src, pkt.Dst, pkt.Flits, d.seq) {
		r.csumDrops++
		s.recycle(d)
		return
	}
	li := d.link
	exp := s.nw.links[li].expected
	switch {
	case d.seq > exp:
		r.hold(s, d, li)
	case d.seq < exp:
		// Already accepted once: an ack-loss replay. Deliver it marked so the
		// controllers' dup suppression absorbs it.
		r.dupArrivals++
		s.finishX(d, now, true)
	default:
		s.finishX(d, now, false)
		exp++
		if r.heldNow > 0 {
			exp = r.release(s, li, exp, now)
		}
		s.nw.links[li].expected = exp
	}
}

// hold parks arrival d on link li, whose predecessor was lost and is still
// being recovered, until the gap fills. A replay of an already-held
// sequence is discarded (its original always arrives first — per-link
// deliveries are strictly monotone in claim order). The replay carries the
// held arrival's payload, so the held arrival becomes its last delivery and
// releases it.
func (r *xrecv) hold(s *ShardPort, d *delivery, li int32) {
	hl := r.held[li]
	i := sort.Search(len(hl), func(j int) bool { return hl[j].seq >= d.seq })
	if i < len(hl) && hl[i].seq == d.seq {
		r.dupArrivals++
		hl[i].d.keep = false
		d.keep = true
		s.recycle(d)
		return
	}
	if hl == nil {
		if n := len(r.spare); n > 0 {
			hl = r.spare[n-1]
			r.spare[n-1] = nil
			r.spare = r.spare[:n-1]
		}
	}
	hl = append(hl, heldDel{})
	copy(hl[i+1:], hl[i:])
	hl[i] = heldDel{seq: d.seq, d: d}
	r.held[li] = hl
	r.heldNow++
}

// release hands the handlers the arrivals held on link li that the
// in-order arrival before exp has made consecutive, and returns the link's
// next expected sequence number. A link left with nothing held leaves the
// buffer, its array kept for the next link to park.
func (r *xrecv) release(s *ShardPort, li int32, exp uint64, now sim.Time) uint64 {
	hl := r.held[li]
	if len(hl) == 0 || hl[0].seq != exp {
		return exp
	}
	n := 0
	for ; n < len(hl) && hl[n].seq == exp; n++ {
		r.heldNow--
		s.finishX(hl[n].d, now, false)
		exp++
	}
	rest := copy(hl, hl[n:])
	clear(hl[rest:])
	if rest == 0 {
		delete(r.held, li)
		r.spare = append(r.spare, hl[:0])
	} else {
		r.held[li] = hl[:rest]
	}
	return exp
}

// EnableTransport interposes the reliable transport for plan's loss
// classes. lookahead is the machine's lookahead (MinPacketLatency of the
// smallest protocol message): the effective retransmit timeout is floored
// there, so a retransmission departs at least one lookahead after the
// attempt it replaces. backoffMax caps the exponential
// backoff (the coherence layer's RetryBackoffMax semantics). Call before
// any traffic, before or after Bind.
func (nw *Network) EnableTransport(plan *fault.Plan, lookahead, backoffMax sim.Time) {
	if plan == nil || !plan.Config().LossEnabled() {
		panic("mesh: EnableTransport requires a plan with an active loss class")
	}
	cfg := plan.Config()
	rto := cfg.RetransTimeout
	if lookahead < 1 {
		lookahead = 1
	}
	if rto < lookahead {
		rto = lookahead
	}
	if backoffMax < rto {
		backoffMax = rto
	}
	nw.tp = &transport{
		plan:       plan,
		rto:        rto,
		backoffMax: backoffMax,
		nackLat:    nw.cfg.MinPacketLatency(1),
		rmax:       cfg.RetransMax,
	}
	nw.linkTable()
	if nw.port != nil {
		nw.port.xr = newXrecv(nw.mem)
	}
}

// TransportActive reports whether the reliable transport is interposed.
func (nw *Network) TransportActive() bool { return nw.tp != nil }

// OnTransportStuck installs the callback invoked (from FlushWindow) when a
// packet exhausts its retransmit budget.
// The machine uses it to abort the run.
func (nw *Network) OnTransportStuck(fn func(StuckLink)) {
	if nw.tp == nil {
		panic("mesh: OnTransportStuck without EnableTransport")
	}
	nw.tp.onStuck = fn
}

// StuckLinks returns the links whose retransmit budget was exhausted, in
// the canonical order the exhaustions were detected.
func (nw *Network) StuckLinks() []StuckLink {
	if nw.tp == nil {
		return nil
	}
	return nw.tp.stuck
}

// TransportStats returns the transport's counters, the receiver's
// included.
func (nw *Network) TransportStats() TransportStats {
	var ts TransportStats
	tp := nw.tp
	if tp == nil {
		return ts
	}
	ts.Seqs, ts.Drops, ts.Corrupts = tp.seqs, tp.drops, tp.corrupts
	ts.Retransmits, ts.Replays = tp.retransmits, tp.replays
	if xr := nw.port.xr; xr != nil {
		ts.ChecksumDrops, ts.DupArrivals = xr.csumDrops, xr.dupArrivals
	}
	return ts
}

// FaultCounts reports how many latency faults the contention model injected
// (delayed packets, stall-delayed arrivals).
func (nw *Network) FaultCounts() (delays, stalls uint64) {
	return nw.fDelays, nw.fStalls
}

// flushX applies the loss verdict to one canonical-order attempt in
// FlushWindow, arriving (if it arrives) at cycle at: the arrival is
// inserted into the engine, carrying its link's index to the receiver, and
// the follow-up attempt (if any) becomes a retransmission timer. An arrival
// with a follow-up shares its payload with it, so its release keeps the
// payload; replays never chain, so a packet's last arrival releases it.
func (nw *Network) flushX(e *deferredSend, p *ShardPort, at sim.Time) {
	li := nw.linkOf(e.src, e.dst)
	v := nw.tp.verdict(e, at, &nw.links[li])
	if v.deliver {
		d := p.newDelivery(e.src, e.dst, e.flits, e.payload, e.first)
		d.kind, d.keep, d.link, d.seq, d.sum = dSeq, v.resend, li, e.seq, v.sum
		p.deliver(d, at)
	}
	if v.resend {
		r := p.takeRetrans()
		*r = v.next
		p.pendingRetrans++
		p.eng.AtHandler(r.at, &p.retransH, r)
	}
}

func (p *ShardPort) takeRetrans() *deferredSend {
	if n := len(p.freeRetrans); n > 0 {
		r := p.freeRetrans[n-1]
		p.freeRetrans[n-1] = nil
		p.freeRetrans = p.freeRetrans[:n-1]
		return r
	}
	return &deferredSend{}
}

// portRetrans fires a retransmission timer: the recorded attempt rejoins
// the port's send log exactly as SendFrom logs a first attempt (it was
// allocated by a flush and is freed here), so the attempt is flushed in
// canonical order.
type portRetrans struct{ p *ShardPort }

func (h *portRetrans) OnEvent(arg any) {
	p := h.p
	r := arg.(*deferredSend)
	p.pendingRetrans--
	*p.logSend(r.at, r.src) = *r
	r.payload = nil
	p.freeRetrans = append(p.freeRetrans, r)
}

// finishX releases one delivery to the destination handler, marked as a
// replay when the transport's receiver identified a duplicate, and then
// recycles the record and its payload.
func (p *ShardPort) finishX(d *delivery, now sim.Time, replay bool) {
	pkt := &d.pkt
	lat := now - d.injected
	p.stats.Packets++
	p.stats.Flits += uint64(pkt.Flits)
	p.stats.TotalLatency += lat
	if lat > p.stats.MaxLatency {
		p.stats.MaxLatency = lat
	}
	h := p.handlers[pkt.Dst]
	if h == nil {
		panic(fmt.Sprintf("mesh: no handler registered for node %d", pkt.Dst))
	}
	pkt.Replay = replay
	h(pkt)
	p.recycle(d)
}

// recycle returns a delivery record to the free list once the handler has
// returned, or once the receiver refused the arrival (checksum failure or
// duplicate-of-held) without invoking it. Its payload goes to the spare
// list, unless a later attempt of the same packet carries it.
func (p *ShardPort) recycle(d *delivery) {
	if pl := d.pkt.Payload; pl != nil && !d.keep {
		p.spare = append(p.spare, pl)
	}
	d.pkt.Payload = nil
	d.pkt.Replay = false
	d.keep = false
	p.freeDels = append(p.freeDels, d)
}
