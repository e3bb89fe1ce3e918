// Package mesh models the Alewife interconnection network: a 2-D mesh of
// processing nodes connected by point-to-point channels, using dimension-
// order wormhole routing (Section 2 of the paper; Seitz [21], Dally [22]).
//
// The model is packet-granularity wormhole: a packet's head flit advances
// one router per HopLatency cycles, each traversed channel is occupied for
// the packet's full length (one flit per FlitCycle), and the body pipelines
// behind the head, so an uncontended packet is delivered after
//
//	inject + hops·HopLatency + flits·FlitCycle
//
// cycles. When a channel is busy, the head waits for it — this is what
// produces the hot-spot queueing that Figure 8 of the paper depends on
// (the paper notes its earlier results missed limited-directory thrashing
// precisely because the network model "did not account for hot-spot
// behavior"). Every node additionally has a single ejection channel, so
// traffic converging on one node serializes at its input even when it
// arrives over different mesh channels.
//
// An Ideal topology (fixed latency, contention only at ejection) is
// provided for ablation experiments.
package mesh

import (
	"fmt"
	"math/bits"

	"limitless/internal/fault"
	"limitless/internal/sim"
)

// NodeID identifies a processing node. Nodes are numbered row-major:
// id = y*Width + x.
type NodeID int

// Topology selects the interconnect model.
type Topology int

const (
	// Mesh2D is the paper's wormhole-routed two-dimensional mesh.
	Mesh2D Topology = iota
	// Ideal is a contention-free fabric with uniform latency except for
	// per-node ejection serialization. Used for ablations.
	Ideal
	// Omega is a multistage shuffle-exchange network of 2x2 switches
	// (log₂N stages), the alternative interconnect ASIM could model
	// (Section 5.1: "either mesh or Omega topologies"). Every route has
	// the same length; contention arises on shared inter-stage channels.
	Omega
)

func (t Topology) String() string {
	switch t {
	case Mesh2D:
		return "mesh2d"
	case Ideal:
		return "ideal"
	case Omega:
		return "omega"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Switching selects how a mesh channel is held during a transfer.
type Switching int

const (
	// Wormhole pipelines the packet across channels: each channel is held
	// for the packet's length, but the head advances as soon as a channel
	// is free (the Alewife network, Dally [22]).
	Wormhole Switching = iota
	// Circuit reserves the whole source-to-destination path for the
	// duration of the transfer, as in circuit-switched interconnects
	// (the other switching discipline ASIM modelled, Section 5.1).
	Circuit
)

func (s Switching) String() string {
	if s == Circuit {
		return "circuit"
	}
	return "wormhole"
}

// Packet is the unit of network transfer. Payload is opaque to the network;
// the coherence layer stores its protocol message there. Flits is the
// packet length in flits (the paper's uniform packet format: header word +
// operands + data words; one word per flit). The network owns the payload
// from SendFrom until the packet's last delivery returns, then hands it to
// the next sender through ShardPort.Spare.
type Packet struct {
	Src, Dst NodeID
	Flits    int
	Payload  any
	// Replay marks a delivery the reliable transport identified as a
	// duplicate (an ack-loss retransmission of an already-delivered packet).
	// Receivers must treat it idempotently; the coherence layer re-marks the
	// payload as a Dup before dispatch. Always false when the loss fault
	// classes are disabled.
	Replay bool
}

// Handler receives packets ejected at a node. The packet and its payload
// are only valid for the duration of the call: the network recycles both
// as soon as the handler returns, so handlers must copy out anything they
// need, the payload's contents included.
type Handler func(pkt *Packet)

// The network's fixed timing, in cycles, calibrated with the default
// HopLatency so that a 64-node machine shows the paper's T_h ≈ 35-cycle
// average remote access latency (Section 3.1).
const (
	FlitCycle     sim.Time = 1 // cycles per flit on a channel
	InjectLatency sim.Time = 1 // network-interface injection overhead
	LocalLatency  sim.Time = 1 // latency for src==dst delivery (no network)
	IdealLatency  sim.Time = 8 // end-to-end latency for the Ideal topology
)

// Config sets the network shape and the settings an experiment varies.
type Config struct {
	Width, Height int
	Topology      Topology
	// Switching applies to the Mesh2D topology: wormhole (default) or
	// circuit switched.
	Switching  Switching
	HopLatency sim.Time // router pipeline delay per hop

	// Faults, when non-nil, injects the plan's packet delays and
	// node-ingress stall windows into every delivery. Fault delays only
	// ever add latency (MinPacketLatency stays a valid bound) and never
	// reorder a (src,dst) pair: the coherence protocol relies on in-order
	// point-to-point delivery, but the relative order of packets on
	// different pairs is perturbed, which the protocol checker uses to
	// explore message interleavings. Fault decisions are stateless hashes
	// of the packet and its cycle. The plan's loss classes (drop, corrupt)
	// additionally require EnableTransport: losses are then recovered by
	// retransmission, which is just a later injection, so the latency
	// bound still holds.
	Faults *fault.Plan
}

// DefaultConfig returns the paper's wormhole-routed mesh with a one-cycle
// hop latency.
func DefaultConfig(width, height int) Config {
	return Config{
		Width:      width,
		Height:     height,
		Topology:   Mesh2D,
		HopLatency: 1,
	}
}

// Stats aggregates network activity over a run.
type Stats struct {
	Packets      uint64
	Flits        uint64
	TotalLatency sim.Time // sum of per-packet inject-to-eject latency
	MaxLatency   sim.Time
	LocalPackets uint64
}

// AvgLatency returns mean inject-to-eject latency over non-local packets.
func (s Stats) AvgLatency() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Packets)
}

// Network is the interconnect: the contention model (channels, ejection
// ports, fault delays, FIFO bookkeeping) and the node handlers. Traffic enters
// and leaves through the port Bind attaches to the engine that runs the
// nodes; see sharded.go.
type Network struct {
	cfg      Config
	n        int
	handlers []Handler
	// wakers[id] is node id's processor while its spin-waits may leave the
	// event queue (ShardPort.SetWaker); nil otherwise.
	wakers []Waker
	// chans[from][dir] for mesh channels; eject[node] for ejection ports;
	// omega[stage*width+pos] for inter-stage channels.
	chans []sim.Resource // indexed by linkIndex
	eject []sim.Resource
	omega []sim.Resource
	// omegaStages and omegaWidth describe the shuffle network (width is
	// the node count rounded up to a power of two).
	omegaStages, omegaWidth int

	// widthShift/widthMask hold log2(Width) and Width-1 when the mesh width
	// is a power of two (every square machine up to P=1024), replacing the
	// hardware divide of the per-hop coordinate split; widthShift is -1
	// otherwise.
	widthShift int
	widthMask  int

	// The link table: one record per (source, destination) link in use,
	// found through linkIdx (keyed src<<32|dst) once per claimed attempt
	// and then reached by index. Only the reliable transport uses it, so
	// EnableTransport arms it and every other run leaves linkIdx nil.
	linkIdx map[uint64]int32
	links   []link

	// routeBuf is route()'s reusable path buffer, consumed within one
	// claim and never retained.
	routeBuf []int

	// The port (see sharded.go) and the lookahead: the minimum latency
	// every delivery must keep after its send.
	port      *ShardPort
	lookahead sim.Time

	// Reliable transport (see transport.go): nil unless a fault plan with
	// an active loss class is installed via EnableTransport, so lossless
	// runs pay nothing and stay bit-identical to the pre-transport engine.
	tp *transport

	// Latency-fault injection counters.
	fDelays, fStalls uint64

	// mem is the pool wrapper New drew, holding the spare memory this
	// network has not taken; Recycle refills it.
	mem *portMem
}

// link is one (source, destination) link's reliable-transport state: the
// sender's and the receiver's sequence numbers.
type link struct {
	next     uint64 // sender's next sequence number, assigned in canonical order
	expected uint64 // receiver's next in-order sequence number
}

// delivery carries one in-flight packet from its delivery event to the
// ejection handler without a per-packet closure; the handler receives a
// pointer to the embedded packet, and the record and its payload return to
// the port's free lists once the handler is done with them. Sequenced
// deliveries (kind dSeq) additionally carry the reliable transport's
// framing: the link's index in the link table, the per-link sequence
// number and the header checksum the receiver validates. keep marks an
// arrival a later attempt of the same packet follows with the same payload
// (a corrupted arrival's retransmission, an ack-lost arrival's replay), so
// its release leaves the payload to that attempt.
type delivery struct {
	pkt      Packet
	injected sim.Time
	kind     uint8 // dPlain or dSeq
	keep     bool
	link     int32
	seq      uint64
	sum      uint32
}

// Directions for mesh channels out of a node.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// New creates a network. Bind it to its engine with Bind, and register a
// handler per node with Register before any traffic is sent.
func New(cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("mesh: non-positive dimensions")
	}
	n := cfg.Width * cfg.Height
	m, _ := portPool.Get().(*portMem)
	if m == nil {
		m = new(portMem)
	}
	nw := &Network{cfg: cfg, n: n, mem: m}
	nw.handlers, m.handlers = reuse(m.handlers, n), nil
	nw.wakers, m.wakers = reuse(m.wakers, n), nil
	nw.chans, m.chans = reuse(m.chans, n*numDirs), nil
	nw.eject, m.eject = reuse(m.eject, n), nil
	nw.widthShift = -1
	if w := cfg.Width; w&(w-1) == 0 {
		nw.widthShift = bits.TrailingZeros(uint(w))
		nw.widthMask = w - 1
	}
	if cfg.Topology == Omega {
		width := 1
		stages := 0
		for width < n {
			width <<= 1
			stages++
		}
		if stages == 0 {
			stages = 1
		}
		nw.omegaWidth, nw.omegaStages = width, stages
		nw.omega, m.omega = reuse(m.omega, stages*width), nil
	}
	return nw
}

// reuse returns s resliced to n elements when its array is large enough,
// or a new slice. Recycle zeroes a pooled array over its whole capacity,
// so either way the n elements start zero.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// linkTable arms the link table, taking the pooled one when there is one.
func (nw *Network) linkTable() {
	m := nw.mem
	nw.linkIdx, nw.links = m.linkIdx, m.links[:0]
	m.linkIdx, m.links = nil, nil
	if nw.linkIdx == nil {
		nw.linkIdx = make(map[uint64]int32)
	}
}

// linkOf returns the index of the (src, dst) link's record in the link
// table, adding a zero record on the link's first use.
func (nw *Network) linkOf(src, dst NodeID) int32 {
	key := uint64(src)<<32 | uint64(uint32(dst))
	li, ok := nw.linkIdx[key]
	if !ok {
		li = int32(len(nw.links))
		nw.links = append(nw.links, link{})
		nw.linkIdx[key] = li
	}
	return li
}

// Nodes returns the node count.
func (nw *Network) Nodes() int { return nw.n }

// Config returns the network configuration.
func (nw *Network) Config() Config { return nw.cfg }

// Stats returns the accumulated statistics.
func (nw *Network) Stats() Stats { return nw.port.stats }

// Bind attaches the network to the engine that runs its nodes and returns
// the port the controllers inject through. lookahead is the minimum
// latency (MinPacketLatency of the smallest message), which every delivery
// must keep after its send. The port installs the engine's end-of-cycle
// hook as its flush, so each cycle's sends are claimed as soon as the
// cycle's last event has run.
func (nw *Network) Bind(eng *sim.Engine, lookahead sim.Time) *ShardPort {
	if lookahead < 1 {
		panic(fmt.Sprintf("mesh: lookahead %d < 1", lookahead))
	}
	nw.lookahead = lookahead
	m := nw.mem
	p := &ShardPort{nw: nw, eng: eng, handlers: nw.handlers, wakers: nw.wakers,
		log: m.log, freeDels: m.dels, freeRetrans: m.retrans, spare: m.spare}
	m.log, m.dels, m.retrans, m.spare = nil, nil, nil, nil
	p.retransH.p = p
	if nw.tp != nil {
		p.xr = newXrecv(m)
	}
	nw.port = p
	eng.SetCycleHook(func() { nw.FlushWindow(eng.Now() + 1) })
	return p
}

// Register installs the ejection handler for node id.
func (nw *Network) Register(id NodeID, h Handler) {
	nw.handlers[id] = h
}

// Waker is a node's processor as the network sees it while the
// processor's spin-waits may leave the event queue (sim.Chain).
type Waker interface {
	// Wake settles an off-queue spin's steps due at or before limit and
	// returns it to the queue; it does nothing while no spin is off it.
	Wake(limit sim.Time)
}

// XY returns the mesh coordinates of a node.
func (nw *Network) XY(id NodeID) (x, y int) {
	if nw.widthShift >= 0 {
		return int(id) & nw.widthMask, int(id) >> uint(nw.widthShift)
	}
	return int(id) % nw.cfg.Width, int(id) / nw.cfg.Width
}

// ID returns the node at mesh coordinates (x, y).
func (nw *Network) ID(x, y int) NodeID {
	return NodeID(y*nw.cfg.Width + x)
}

// Distance returns the Manhattan hop count between two nodes.
func (nw *Network) Distance(a, b NodeID) int {
	ax, ay := nw.XY(a)
	bx, by := nw.XY(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func (nw *Network) linkIndex(from NodeID, dir int) int {
	return int(from)*numDirs + dir
}

// leg is one straight stretch of a dimension-order route: hops channels in
// direction dir, the node id advancing by step per hop.
type leg struct{ hops, dir, step int }

// legs returns the dimension-order route from src to dst as its two legs,
// X first, then Y. It is the one definition of the route: route lists its
// channels, and the wormhole claim walks it without building the list.
func (nw *Network) legs(src, dst NodeID) [2]leg {
	sx, sy := nw.XY(src)
	dx, dy := nw.XY(dst)
	x := leg{dx - sx, dirEast, 1}
	if x.hops < 0 {
		x = leg{sx - dx, dirWest, -1}
	}
	y := leg{dy - sy, dirSouth, nw.cfg.Width}
	if y.hops < 0 {
		y = leg{sy - dy, dirNorth, -nw.cfg.Width}
	}
	return [2]leg{x, y}
}

// route returns the dimension-order (X then Y) sequence of channel indices
// from src to dst. The returned slice aliases the network's reusable route
// buffer; it is valid only until the next route call, which is fine because
// claimPath consumes it synchronously.
func (nw *Network) route(src, dst NodeID) []int {
	path := nw.routeBuf[:0]
	id := src
	for _, l := range nw.legs(src, dst) {
		for k := 0; k < l.hops; k++ {
			path = append(path, nw.linkIndex(id, l.dir))
			id += NodeID(l.step)
		}
	}
	nw.routeBuf = path
	return path
}

// claimPath walks a packet's route for an injection at cycle now, claiming
// the traversed channels and the destination's ejection port, and returns
// the delivery cycle. This is the network's entire contention model; every
// packet between distinct nodes goes through it from FlushWindow.
//
// Fault delays never reorder a (src, dst) pair. Every claim to a
// destination ends on its ejection port, a busy-until resource, so each
// delivery to it lands after the one claimed before it, whatever delay the
// packet took on the way; and within a pair, claim order is send order.
func (nw *Network) claimPath(now sim.Time, src, dst NodeID, flits int) sim.Time {
	serial := sim.Time(flits) * FlitCycle
	head := now + InjectLatency

	switch nw.cfg.Topology {
	case Mesh2D:
		if nw.cfg.Switching == Wormhole {
			id := src
			for _, l := range nw.legs(src, dst) {
				for k := 0; k < l.hops; k++ {
					start := nw.chans[nw.linkIndex(id, l.dir)].Claim(head, serial)
					head = start + nw.cfg.HopLatency
					id += NodeID(l.step)
				}
			}
			break
		}
		// Circuit switching: find when every channel on the path is
		// simultaneously free (fixpoint over the path), then hold the whole
		// circuit for the setup sweep plus the transfer.
		path := nw.route(src, dst)
		start := head
		for changed := true; changed; {
			changed = false
			for _, li := range path {
				if f := nw.chans[li].FreeAt(start); f > start {
					start = f
					changed = true
				}
			}
		}
		hold := sim.Time(len(path))*nw.cfg.HopLatency + serial
		for _, li := range path {
			nw.chans[li].Claim(start, hold)
		}
		head = start + sim.Time(len(path))*nw.cfg.HopLatency
	case Ideal:
		head += IdealLatency
	case Omega:
		// Destination-tag routing through the shuffle-exchange stages:
		// after stage s the packet sits on inter-stage channel
		// (s, shuffled position with the s-th destination bit shifted in).
		pos := uint(src)
		k := nw.omegaStages
		for s := 0; s < k; s++ {
			bit := (uint(dst) >> (k - 1 - s)) & 1
			pos = ((pos << 1) | bit) & uint(nw.omegaWidth-1)
			start := nw.omega[s*nw.omegaWidth+int(pos)].Claim(head, serial)
			head = start + nw.cfg.HopLatency
		}
	}

	if f := nw.cfg.Faults; f != nil {
		if d := f.PacketDelay(now, int(src), int(dst)); d > 0 {
			nw.fDelays++
			head += d
		}
		// A stalled destination holds arriving packets at its ingress until
		// the stall window passes.
		if d := f.StallDelay(head, int(dst)); d > 0 {
			nw.fStalls++
			head += d
		}
	}

	// Ejection channel: all packets entering a node serialize here.
	start := nw.eject[dst].Claim(head, serial)
	return start + serial
}

// MinPacketLatency returns a lower bound on the inject-to-eject latency of
// any packet of at least minFlits flits between two distinct nodes. Every
// topology's delivery time satisfies
//
//	at ≥ now + InjectLatency + (first hop) + minFlits·FlitCycle
//
// where the first hop costs HopLatency (Mesh2D, Omega, Circuit) or
// IdealLatency (Ideal); contention, extra hops and fault delays only add
// to it. This bound is the network's lookahead: a packet sent at cycle t
// is never delivered before t plus the bound, which the flush asserts on
// every claim and the reliable transport floors its retransmit timeout at.
// A port bound with a longer lookahead than the network keeps breaks that
// floor, which the flush detects and reports.
func (cfg Config) MinPacketLatency(minFlits int) sim.Time {
	if minFlits < 1 {
		minFlits = 1
	}
	hop := cfg.HopLatency
	if cfg.Topology == Ideal {
		hop = IdealLatency
	}
	return InjectLatency + hop + sim.Time(minFlits)*FlitCycle
}

// InFlight returns the number of packets currently between injection and
// ejection — scheduled deliveries, sends deferred in the port log, the
// reliable transport's pending retransmission timers and receiver-held
// out-of-order arrivals. It must only be called while the engine is not
// executing; the watchdog's diagnostic dump is the intended caller.
func (nw *Network) InFlight() int {
	p := nw.port
	n := p.inflight + len(p.log) + p.pendingRetrans
	if p.xr != nil {
		n += p.xr.heldNow
	}
	return n
}

// lookaheadPanic reports a delivery at cycle at that lands inside the
// lookahead of e's send.
func (nw *Network) lookaheadPanic(e *deferredSend, at sim.Time) {
	panic(fmt.Sprintf("mesh: lookahead violation — packet %d->%d sent at %d delivered at %d, inside the %d-cycle lookahead (network latency below the lookahead)",
		e.src, e.dst, e.at, at, nw.lookahead))
}

// barrierPanic reports a send logged at or past the barrier of the flush
// claiming it: the engine ran beyond the barrier.
func (nw *Network) barrierPanic(e *deferredSend, before sim.Time) {
	panic(fmt.Sprintf("mesh: send %d->%d at cycle %d logged at or past the barrier at %d (the engine ran beyond the barrier)",
		e.src, e.dst, e.at, before))
}

// Recycle hands the network's per-node arrays, the port's send log, free
// delivery records, retransmission records and spare payloads, and the
// link table and hold buffer to the pool New draws on, so the next network
// built in the process reuses them. Sends still logged, packets still in
// flight and arrivals still held — a run cut off by a cycle limit, a
// watchdog or an abort — are dropped with the network, their payloads
// with them. The network must not be used afterwards; a second Recycle
// does nothing.
func (nw *Network) Recycle() {
	m := nw.mem
	if m == nil {
		return
	}
	nw.mem = nil
	clear(nw.handlers[:cap(nw.handlers)])
	clear(nw.wakers[:cap(nw.wakers)])
	clear(nw.chans[:cap(nw.chans)])
	clear(nw.eject[:cap(nw.eject)])
	m.handlers, m.wakers, m.chans, m.eject = nw.handlers, nw.wakers, nw.chans, nw.eject
	if nw.omega != nil {
		clear(nw.omega[:cap(nw.omega)])
		m.omega = nw.omega
	}
	if nw.linkIdx != nil {
		clear(nw.linkIdx)
		m.linkIdx, m.links = nw.linkIdx, nw.links[:0]
	}
	if p := nw.port; p != nil {
		clear(p.log[:cap(p.log)])
		m.log, m.dels, m.retrans, m.spare = p.log[:0], p.freeDels, p.freeRetrans, p.spare
		if xr := p.xr; xr != nil {
			clear(xr.held)
			m.held, m.spareHeld = xr.held, xr.spare
			xr.held, xr.spare = nil, nil
		}
		p.log, p.freeDels, p.freeRetrans, p.spare = nil, nil, nil, nil
	}
	nw.handlers, nw.wakers, nw.chans, nw.eject, nw.omega = nil, nil, nil, nil, nil
	nw.linkIdx, nw.links = nil, nil
	portPool.Put(m)
}
