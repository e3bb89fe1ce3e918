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
// operands + data words; one word per flit).
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

// Handler receives packets ejected at a node. The packet is only valid for
// the duration of the call: the network recycles it as soon as the handler
// returns, so handlers must copy out anything they need (retaining the
// Payload pointer is fine — the network never touches it after delivery).
type Handler func(pkt *Packet)

// Config sets the network shape and timing.
type Config struct {
	Width, Height int
	Topology      Topology
	// Switching applies to the Mesh2D topology: wormhole (default) or
	// circuit switched.
	Switching     Switching
	HopLatency    sim.Time // router pipeline delay per hop
	FlitCycle     sim.Time // cycles per flit on a channel
	InjectLatency sim.Time // network-interface injection overhead
	LocalLatency  sim.Time // latency for src==dst delivery (no network)
	IdealLatency  sim.Time // end-to-end latency for the Ideal topology

	// JitterMax, when positive, adds a deterministic pseudo-random delay
	// in [0, JitterMax) to each packet, seeded by JitterSeed. Delivery
	// between any (source, destination) pair stays FIFO — the coherence
	// protocol relies on in-order point-to-point delivery — but the
	// relative order of packets on different pairs is perturbed. The
	// protocol checker uses this to explore message interleavings.
	JitterMax  sim.Time
	JitterSeed uint64

	// Faults, when non-nil, injects the plan's packet-delay jitter and
	// node-ingress stall windows into every delivery. Like jitter, fault
	// delays only ever add latency (MinPacketLatency stays a valid bound)
	// and never reorder a (src,dst) pair. Unlike the jitter stream, fault
	// decisions are stateless hashes, so they are identical across shard
	// partitions. The plan's loss classes (drop, corrupt) additionally
	// require EnableTransport: losses are then recovered by retransmission,
	// which is just a later injection, so the latency bound still holds.
	Faults *fault.Plan
}

// DefaultConfig returns timing calibrated so that a 64-node machine shows
// the paper's T_h ≈ 35-cycle average remote access latency (Section 3.1).
func DefaultConfig(width, height int) Config {
	return Config{
		Width:         width,
		Height:        height,
		Topology:      Mesh2D,
		HopLatency:    1,
		FlitCycle:     1,
		InjectLatency: 1,
		LocalLatency:  1,
		IdealLatency:  8,
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

type channel struct {
	res sim.Resource
}

// Network is the interconnect: the shared contention model (channels,
// ejection ports, jitter, FIFO bookkeeping) and the node handlers. Traffic
// enters and leaves through the ports ShardPorts binds to the engines that
// run the nodes; see sharded.go.
type Network struct {
	cfg      Config
	n        int
	handlers []Handler
	// wakers[id] is node id's processor while its spin-waits may leave the
	// event queue (ShardPort.SetWaker); nil otherwise.
	wakers []Waker
	// chans[from][dir] for mesh channels; eject[node] for ejection ports;
	// omega[stage*width+pos] for inter-stage channels.
	chans []channel // indexed by linkIndex
	eject []channel
	omega []channel
	// omegaStages and omegaWidth describe the shuffle network (width is
	// the node count rounded up to a power of two).
	omegaStages, omegaWidth int

	// widthShift/widthMask hold log2(Width) and Width-1 when the mesh width
	// is a power of two (every square machine up to P=1024), replacing the
	// hardware divide of the per-hop coordinate split; widthShift is -1
	// otherwise.
	widthShift int
	widthMask  int

	rng      uint64
	pairLast map[uint64]sim.Time // last scheduled delivery per (src,dst)

	// routeBuf is route()'s reusable path buffer, consumed within one
	// claim and never retained.
	routeBuf []int

	// The ports (see sharded.go): one per engine, the node→engine map, and
	// the lookahead width.
	ports     []*ShardPort
	nodeShard []int
	window    sim.Time

	// Reliable transport (see transport.go): nil unless a fault plan with
	// an active loss class is installed via EnableTransport, so lossless
	// runs pay nothing and stay bit-identical to the pre-transport engine.
	tp *transport

	// Latency-fault injection counters (claims run in canonical order, so
	// these are partition-independent).
	fDelays, fStalls uint64
}

// delivery carries one in-flight packet from its delivery event to the
// ejection handler without a per-packet closure; the handler receives a
// pointer to the embedded packet, and the record returns to its port's free
// list once the handler is done with it. Sequenced deliveries (kind dSeq)
// additionally carry the reliable transport's framing: the per-link
// sequence number and the header checksum the receiver validates.
type delivery struct {
	pkt      Packet
	injected sim.Time
	kind     uint8 // dPlain or dSeq
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

// New creates a network. Bind it to its engines with ShardPorts, and
// register a handler per node with Register before any traffic is sent.
func New(cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("mesh: non-positive dimensions")
	}
	n := cfg.Width * cfg.Height
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	nw := &Network{
		cfg:      cfg,
		n:        n,
		handlers: make([]Handler, n),
		wakers:   make([]Waker, n),
		chans:    make([]channel, n*numDirs),
		eject:    make([]channel, n),
		rng:      seed,
		pairLast: make(map[uint64]sim.Time),
	}
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
		nw.omega = make([]channel, stages*width)
	}
	return nw
}

// jitter returns the next deterministic pseudo-random delay.
func (nw *Network) jitter() sim.Time {
	if nw.cfg.JitterMax <= 0 {
		return 0
	}
	nw.rng ^= nw.rng << 13
	nw.rng ^= nw.rng >> 7
	nw.rng ^= nw.rng << 17
	return sim.Time(nw.rng % uint64(nw.cfg.JitterMax))
}

// Nodes returns the node count.
func (nw *Network) Nodes() int { return nw.n }

// Config returns the network configuration.
func (nw *Network) Config() Config { return nw.cfg }

// Stats returns the accumulated statistics, folded from the ports'
// counters; all of them are sums or maxima, so the merge is independent of
// the partition.
func (nw *Network) Stats() Stats {
	var s Stats
	for _, p := range nw.ports {
		s.Packets += p.stats.Packets
		s.Flits += p.stats.Flits
		s.TotalLatency += p.stats.TotalLatency
		s.LocalPackets += p.stats.LocalPackets
		if p.stats.MaxLatency > s.MaxLatency {
			s.MaxLatency = p.stats.MaxLatency
		}
	}
	return s
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
func (nw *Network) claimPath(now sim.Time, src, dst NodeID, flits int) sim.Time {
	serial := sim.Time(flits) * nw.cfg.FlitCycle
	head := now + nw.cfg.InjectLatency

	switch nw.cfg.Topology {
	case Mesh2D:
		if nw.cfg.Switching == Wormhole {
			id := src
			for _, l := range nw.legs(src, dst) {
				for k := 0; k < l.hops; k++ {
					start := nw.chans[nw.linkIndex(id, l.dir)].res.Claim(head, serial)
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
				if f := nw.chans[li].res.FreeAt(start); f > start {
					start = f
					changed = true
				}
			}
		}
		hold := sim.Time(len(path))*nw.cfg.HopLatency + serial
		for _, li := range path {
			nw.chans[li].res.Claim(start, hold)
		}
		head = start + sim.Time(len(path))*nw.cfg.HopLatency
	case Ideal:
		head += nw.cfg.IdealLatency
	case Omega:
		// Destination-tag routing through the shuffle-exchange stages:
		// after stage s the packet sits on inter-stage channel
		// (s, shuffled position with the s-th destination bit shifted in).
		pos := uint(src)
		k := nw.omegaStages
		for s := 0; s < k; s++ {
			bit := (uint(dst) >> (k - 1 - s)) & 1
			pos = ((pos << 1) | bit) & uint(nw.omegaWidth-1)
			ch := &nw.omega[s*nw.omegaWidth+int(pos)]
			start := ch.res.Claim(head, serial)
			head = start + nw.cfg.HopLatency
		}
	}

	head += nw.jitter()
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
	start := nw.eject[dst].res.Claim(head, serial)
	at := start + serial

	// Jitter and fault delays must never reorder a (src,dst) pair: enforce
	// FIFO delivery.
	if nw.cfg.JitterMax > 0 || nw.cfg.Faults != nil {
		key := uint64(src)<<32 | uint64(uint32(dst))
		if last := nw.pairLast[key]; at <= last {
			at = last + 1
		}
		nw.pairLast[key] = at
	}
	return at
}

// MinPacketLatency returns a lower bound on the inject-to-eject latency of
// any packet of at least minFlits flits between two distinct nodes. Every
// topology's delivery time satisfies
//
//	at ≥ now + InjectLatency + (first hop) + minFlits·FlitCycle
//
// where the first hop costs HopLatency (Mesh2D, Omega, Circuit) or
// IdealLatency (Ideal); contention, extra hops, and jitter only add to it.
// This bound is the lookahead that makes windowed sharded execution sound:
// a packet sent inside a window can never be delivered inside it. The
// result is clamped to ≥ 1 cycle; configurations whose true minimum is 0
// (all latency constants zero) cannot be sharded, which the window flush
// detects and reports.
func (cfg Config) MinPacketLatency(minFlits int) sim.Time {
	if minFlits < 1 {
		minFlits = 1
	}
	hop := cfg.HopLatency
	if cfg.Topology == Ideal {
		hop = cfg.IdealLatency
	}
	w := cfg.InjectLatency + hop + sim.Time(minFlits)*cfg.FlitCycle
	if w < 1 {
		w = 1
	}
	return w
}

// InFlight returns the number of packets currently between injection and
// ejection — scheduled deliveries, sends deferred in the port logs, the
// reliable transport's pending retransmission timers and receiver-held
// out-of-order arrivals. It must only be called while no engine is
// executing (between windows or after the engines have halted); the
// watchdog's diagnostic dump is the intended caller.
func (nw *Network) InFlight() int {
	n := 0
	for _, p := range nw.ports {
		n += p.inflight + len(p.log) - p.logHead + p.pendingRetrans
		if p.xr != nil {
			n += p.xr.heldNow
		}
	}
	return n
}

// lookaheadPanic reports a delivery at cycle at that lands inside the
// lookahead window of e's send.
func (nw *Network) lookaheadPanic(e *deferredSend, at sim.Time) {
	panic(fmt.Sprintf("mesh: lookahead violation — packet %d->%d sent at %d delivered at %d, inside the %d-cycle shard window (network latency below the lookahead)",
		e.src, e.dst, e.at, at, nw.window))
}

// Recycle hands every port's send log and free delivery records to the
// pool ShardPorts draws on, so the next network built in the process reuses
// them. Sends still logged and packets still in flight — a run cut off by
// a cycle limit, a watchdog or an abort — are dropped with the network.
// The network must not be used afterwards; a second Recycle does nothing.
func (nw *Network) Recycle() {
	for _, p := range nw.ports {
		if p.log == nil && p.freeDels == nil {
			continue
		}
		clear(p.log[:cap(p.log)])
		portPool.Put(&portMem{log: p.log[:0], dels: p.freeDels})
		p.log, p.freeDels = nil, nil
	}
}

// ChannelUtilization returns the mean busy fraction across all mesh
// channels given the elapsed simulated time.
func (nw *Network) ChannelUtilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	var busy sim.Time
	for i := range nw.chans {
		busy += nw.chans[i].res.BusyCycles()
	}
	return float64(busy) / float64(int64(elapsed)*int64(len(nw.chans)))
}

// EjectBusy returns total ejection-channel occupancy at a node — a direct
// measure of hot-spot concentration.
func (nw *Network) EjectBusy(id NodeID) sim.Time {
	return nw.eject[id].res.BusyCycles()
}
