package coherence

import (
	"fmt"
	"sync"

	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/ipi"
	"limitless/internal/mesh"
	"limitless/internal/protocol"
	"limitless/internal/sim"
)

// Spinner is a node's processor as its controllers see it while the
// processor's spin-waits may leave the event queue (proc.Processor.Wake).
type Spinner interface {
	mesh.Waker
	// OffQueue reports whether a spin is off the event queue.
	OffQueue() bool
}

// TrapSink is the memory controller's view of its local processor: the
// interrupt wire of Figure 3. ProtocolTrap is raised whenever a protocol
// packet has been forwarded to the IPI input queue (Section 4.2); the
// processor then drains the queue through its trap handler.
type TrapSink interface {
	ProtocolTrap()
}

// Params configures a node's pair of controllers.
type Params struct {
	// Scheme selects the directory organization.
	Scheme Scheme
	// Pointers is the hardware pointer count (the i of Dir_iNB and
	// LimitLESS_i). Ignored by full-map.
	Pointers int
	// Nodes is the machine size (for full-map vectors).
	Nodes int
	// Timing holds the variable latencies; the fixed ones are constants.
	Timing Timing
	// ModifyGrant enables the footnote-1 optimization: an upgrade by the
	// block's sole reader is answered with a dataless MODG instead of
	// WDATA ("the Alewife machine will actually support an optimization
	// of this transition that would send a modify grant (MODG), rather
	// than write data (WDATA)").
	ModifyGrant bool
	// Storage selects the sharer-set backend: packed inline sets spilling
	// to a per-store word arena (the default), or the original boxed
	// PointerSet implementations kept as a cross-checking oracle. The two
	// are bit-identical in every cycle count and statistic.
	Storage directory.StorageMode
}

// DefaultParams returns the paper's baseline configuration: LimitLESS with
// four hardware pointers on a 64-node machine, with T_s = 50 (the lower of
// the paper's Alewife estimates).
func DefaultParams(nodes int) Params {
	return Params{
		Scheme:   LimitLESS,
		Pointers: 4,
		Nodes:    nodes,
		Timing:   Timing{TrapService: 50},
	}
}

func (p Params) validate() {
	if p.Nodes < 1 {
		panic("coherence: Params.Nodes must be >= 1")
	}
	if policyFor(p.Scheme) == nil {
		panic(fmt.Sprintf("coherence: scheme %v has no registered policy", p.Scheme))
	}
	if p.Scheme.Info().NeedsPointers && p.Pointers < 1 {
		panic(fmt.Sprintf("coherence: scheme %v needs Pointers >= 1", p.Scheme))
	}
}

// setMax returns the per-entry sharer-set capacity for the scheme: -1
// (unbounded) for full-map storage, the hardware pointer count otherwise.
func (p Params) setMax() int {
	if p.Scheme.Info().FullMapStorage {
		return -1
	}
	return p.Pointers
}

// newDir builds the node's directory store on a fresh word arena.
func (p Params) newDir() *directory.Store {
	return directory.NewStore(directory.NewSpace(p.Nodes, p.Storage), p.setMax())
}

// deferredPkt is one packet held behind the Trans-In-Progress interlock.
type deferredPkt struct {
	src mesh.NodeID
	msg Msg
}

// MemoryController is the memory side of one node: the directory for every
// block whose home is this node, the hardware protocol engine of Figure 2,
// and the IPI forwarding machinery of the LimitLESS scheme.
type MemoryController struct {
	eng    *sim.Engine
	nw     *mesh.ShardPort
	id     mesh.NodeID
	params Params

	dir   *directory.Store
	ctrl  sim.Resource
	ipiq  *ipi.Queue
	sink  TrapSink
	stats Stats
	rec   *fault.Recorder

	// deferred holds non-retriable packets (REPM/UPDATE/ACKC) that arrived
	// while the block's meta state was Trans-In-Progress; it is made on
	// first use, which only the LimitLESS interlock reaches. Drained slices
	// park in deferFree so overflow bursts reuse their backing arrays.
	deferred  map[directory.Addr][]deferredPkt
	deferFree [][]deferredPkt

	// procH dispatches delayed message processing without a per-message
	// closure; the (src, msg) pair rides in a pooled procArg.
	procH    processHandler
	freeArgs []*procArg

	// decoded is the message Decode unpacked last, valid until the next
	// Decode.
	decoded Msg

	// Reusable sharer-walk buffers. shBuf backs the dispatch context's
	// memoized sharer list (valid for one dispatch; dispatch never nests),
	// ownBuf backs the transient walks inside owner and chainedRead, whose
	// results are consumed before any other walk can run. Keeping them
	// separate means an action may hold its sharer list across a nested
	// owner lookup (finishReadTransaction / finishWriteTransaction) safely.
	// Both hold the packed directory's compact 16-bit node type, so a
	// P=1024 sharer walk streams a quarter of the bytes the old
	// []mesh.NodeID buffers did.
	shBuf  []directory.Node
	ownBuf []directory.Node

	// tbl is the scheme's memory-side transition table. chained caches
	// SchemeInfo.ChainedList for the duplicate-RREQ echo check, freshMeta
	// is the meta state of fresh directory entries (Normal for
	// hardware-first schemes, Trap-Always when SchemeInfo.TrapDefault),
	// and mctx is the reusable dispatch scratch context.
	tbl       *protocol.Table[memCtx]
	chained   bool
	freshMeta directory.Meta
	mctx      memCtx

	// spin is the node's processor while its spin-waits may leave the
	// event queue (SetWaker); each process event wakes it first.
	spin mesh.Waker
}

// procArg carries one message through the controller-occupancy delay
// between Handle and process.
type procArg struct {
	src mesh.NodeID
	msg Msg
}

type processHandler struct{ mc *MemoryController }

func (h *processHandler) OnEvent(arg any) {
	mc := h.mc
	if w := mc.spin; w != nil {
		w.Wake(mc.eng.Now() - 1)
	}
	a := arg.(*procArg)
	mc.process(a.src, &a.msg)
	mc.freeArgs = append(mc.freeArgs, a)
}

// mcPool recycles memory controllers across machines: Recycle hands one
// back with its buffers emptied and NewMemoryController draws on it.
var mcPool sync.Pool

// NewMemoryController builds the directory side of node id. The sink may
// be nil for schemes that never trap (full-map, limited, private, chained).
func NewMemoryController(eng *sim.Engine, nw *mesh.ShardPort, id mesh.NodeID, params Params, sink TrapSink) *MemoryController {
	params.validate()
	info := params.Scheme.Info()
	freshMeta := directory.Normal
	if info.TrapDefault {
		// Software-only coherence means every entry starts — and stays —
		// in Trap-Always mode.
		freshMeta = directory.TrapAlways
	}
	mc, _ := mcPool.Get().(*MemoryController)
	if mc == nil {
		mc = new(MemoryController)
	}
	*mc = MemoryController{
		eng:       eng,
		nw:        nw,
		id:        id,
		params:    params,
		dir:       params.newDir(),
		ipiq:      ipi.NewQueue(),
		sink:      sink,
		tbl:       policyFor(params.Scheme).mem,
		chained:   info.ChainedList,
		freshMeta: freshMeta,
		// The buffers a recycled controller keeps, emptied by Recycle.
		deferred:  mc.deferred,
		deferFree: mc.deferFree,
		freeArgs:  mc.freeArgs,
		shBuf:     mc.shBuf,
		ownBuf:    mc.ownBuf,
	}
	mc.procH = processHandler{mc}
	mc.mctx.mc = mc
	return mc
}

// ID returns the node this controller belongs to.
func (mc *MemoryController) ID() mesh.NodeID { return mc.id }

// SetWaker hands the controller its node's processor while that
// processor's spin-waits may leave the event queue
// (proc.Processor.Attach): each process event wakes it first.
func (mc *MemoryController) SetWaker(w mesh.Waker) { mc.spin = w }

// Nodes returns the machine size.
func (mc *MemoryController) Nodes() int { return mc.params.Nodes }

// Params returns the controller configuration.
func (mc *MemoryController) Params() Params { return mc.params }

// Dir exposes the directory memory. The LimitLESS trap handler reads and
// writes it directly — "the directories are placed in a special region of
// memory that may be read and written by the processor" (Section 4.1).
func (mc *MemoryController) Dir() *directory.Store { return mc.dir }

// IPIQueue exposes the IPI input queue the processor drains on a trap.
func (mc *MemoryController) IPIQueue() *ipi.Queue { return mc.ipiq }

// Stats returns a copy of the controller's counters.
func (mc *MemoryController) Stats() Stats { return mc.stats }

// SetRecorder installs a violation recorder. With a recorder present,
// protocol violations on the message-dispatch paths — and out-of-range or
// malformed pointer-set accesses inside the directory storage — are
// recorded and the offending operation dropped; without one they panic (a
// protocol bug in a deterministic fault-free simulation must fail loudly).
func (mc *MemoryController) SetRecorder(r *fault.Recorder) {
	mc.rec = r
	mc.dir.Space().SetRecorder(r)
}

// entry fetches (or creates) the directory entry for addr, applying the
// scheme's default meta state to fresh entries.
func (mc *MemoryController) entry(addr directory.Addr) *directory.Entry {
	e, created := mc.dir.EntryOrCreate(addr)
	if created {
		e.Meta = mc.freshMeta
	}
	return e
}

// Send injects a protocol message from this node. It is used both by the
// hardware controller and — through the IPI output interface — by the
// LimitLESS software handler.
func (mc *MemoryController) Send(dst mesh.NodeID, m Msg) {
	mc.stats.Sent[m.Type]++
	if m.Type == INV || m.Type == CINV {
		mc.stats.InvalidationsSent++
	}
	sendMsg(mc.nw, mc.id, dst, &m)
}

// Decode unpacks a packet from the IPI input queue into the controller's
// decode buffer. The message stays valid until the next Decode: a handler
// decodes once per trap, and handlers never nest.
func (mc *MemoryController) Decode(p *ipi.Packet) (mesh.NodeID, *Msg) {
	var src mesh.NodeID
	src, mc.decoded = DecodeIPI(p)
	return src, &mc.decoded
}

// DupOf returns a copy of m marked as a duplicate delivery (Msg.Dup), for a
// re-delivery of a message the node has already received.
func DupOf(m *Msg) Msg {
	c := *m
	c.Dup = true
	return c
}

// Recycle returns the controller's directory storage and IPI queue to
// their pools, empties the buffers it keeps, and hands the controller
// itself to the pool NewMemoryController draws on. Every directory entry
// it held is invalid afterwards, so it may only be called once nothing of
// the run is reachable any more (Machine.Release), and only once: a
// controller pooled twice would serve two machines.
func (mc *MemoryController) Recycle() {
	mc.dir.Recycle()
	mc.ipiq.Recycle()
	clear(mc.deferred)
	*mc = MemoryController{
		deferred:  mc.deferred,
		deferFree: mc.deferFree,
		freeArgs:  mc.freeArgs,
		shBuf:     mc.shBuf[:0],
		ownBuf:    mc.ownBuf[:0],
	}
	mcPool.Put(mc)
}

// cost returns the controller occupancy for processing an incoming message.
func (mc *MemoryController) cost(t MsgType) sim.Time {
	c := CtrlOccupancy
	switch t {
	case RREQ, WREQ, REPM, UPDATE, URREQ, UWREQ:
		c += MemAccess
	}
	return c
}

// Handle accepts a protocol packet delivered by the network for a block
// homed at this node. Processing is serialized through the controller's
// occupancy resource and then dispatched to the protocol engine. Handle
// keeps a copy of m, which the caller may reuse once it returns.
func (mc *MemoryController) Handle(src mesh.NodeID, m *Msg) {
	cost := mc.cost(m.Type)
	start := mc.ctrl.Claim(mc.eng.Now(), cost)
	var a *procArg
	if n := len(mc.freeArgs); n > 0 {
		a = mc.freeArgs[n-1]
		mc.freeArgs[n-1] = nil
		mc.freeArgs = mc.freeArgs[:n-1]
	} else {
		a = &procArg{}
	}
	a.src, a.msg = src, *m
	mc.eng.AtHandler(start+cost, &mc.procH, a)
}

// process runs one message through the scheme's memory-side transition
// table: the meta-state filter of Table 4 and the hardware state machine
// of Figure 2 / Table 2 are rows of the same table, tried in declaration
// order.
func (mc *MemoryController) process(src mesh.NodeID, m *Msg) {
	mc.stats.Received[m.Type]++
	e := mc.entry(m.Addr)

	// Fault-injected re-deliveries are suppressed before they can reach the
	// table: a duplicate must never trap, defer, or bounce BUSY, and above
	// all must never re-run a transition. The only duplicate that earns a
	// reply is a re-delivered RREQ against a stable Read-Only entry whose
	// pointer set already records the requester — answering it with an
	// idempotent RDATA echo is safe (the reader holds the copy the directory
	// thinks it holds) and models a real controller's retransmission path.
	if m.Dup {
		mc.stats.DupSuppressed++
		if m.Type == RREQ && e.State == directory.ReadOnly && e.Meta == directory.Normal &&
			!mc.chained && (e.Ptrs.Contains(src) || (e.Local && src == mc.id)) {
			mc.Send(src, Msg{Type: RDATA, Addr: m.Addr, Value: e.Value, Next: -1, Dup: true})
		}
		return
	}

	c := &mc.mctx
	c.reset(src, m, e)
	if v := mc.tbl.Dispatch(uint8(e.State), uint8(e.Meta), uint8(m.Type), c); v != protocol.Matched {
		mc.tableViolation(v, e, src, m)
	}
}

// forwardToSoftware implements the hand-off of Section 4.3: the packet is
// placed in the IPI input queue, the block is interlocked, and the
// processor is interrupted.
func (mc *MemoryController) forwardToSoftware(src mesh.NodeID, m *Msg, e *directory.Entry) {
	if mc.sink == nil {
		panic(fmt.Sprintf("coherence: node %d forwards %v to software but has no trap sink (scheme %v)",
			mc.id, m.Type, mc.params.Scheme))
	}
	mc.stats.Traps++
	e.Pending++
	e.Meta = directory.TransInProgress
	mc.ipiq.Push(EncodeIPI(mc.ipiq.NewPacket(), src, m))
	mc.sink.ProtocolTrap()
}

// Release ends software processing of addr: the handler has set the meta
// state it wants (Trap-On-Write, Normal, ...). Deferred packets —
// non-retriable ACKC/UPDATE/REPM that arrived behind the interlock — are
// re-processed immediately and in order, before any newly arriving request
// can claim the controller. Without that priority a steady stream of
// BUSY-retried requests can starve an in-flight write transaction's
// acknowledgments indefinitely (a livelock, not a slowdown).
func (mc *MemoryController) Release(addr directory.Addr) {
	e := mc.entry(addr)
	if e.Pending > 0 {
		e.Pending--
	}
	mc.stats.SWHandled++
	pending := mc.deferred[addr]
	delete(mc.deferred, addr)
	for i := range pending {
		// Account for controller occupancy, but do not let later-arriving
		// traffic overtake: process now.
		d := &pending[i]
		mc.ctrl.Claim(mc.eng.Now(), mc.cost(d.msg.Type))
		mc.process(d.src, &d.msg)
	}
	if pending != nil {
		// Recycle the drained slice. The map entry was deleted before the
		// loop, so re-deferrals during processing built a fresh slice and
		// this backing array is exclusively ours.
		for i := range pending {
			pending[i] = deferredPkt{}
		}
		mc.deferFree = append(mc.deferFree, pending[:0])
	}
}

// sharersInto lists every cache the directory believes holds the block,
// including the home processor recorded by the Local Bit, appending into
// the caller's buffer.
func (mc *MemoryController) sharersInto(buf []directory.Node, e *directory.Entry) []directory.Node {
	nodes := e.Ptrs.NodesInto(buf[:0])
	if e.Local {
		nodes = append(nodes, directory.Node(mc.id))
	}
	return nodes
}

// sharers lists the block's sharers in the controller's dispatch-scoped
// buffer. The result is valid until the next sharers call — long enough for
// the dispatch context's memoization, which is its only caller.
func (mc *MemoryController) sharers(e *directory.Entry) []directory.Node {
	mc.shBuf = mc.sharersInto(mc.shBuf, e)
	return mc.shBuf
}

// addSharer records a read copy at node n, implementing the Local Bit
// escape for the home node (Section 4.3: "local read requests will never
// overflow a directory"). It reports overflow.
func (mc *MemoryController) addSharer(e *directory.Entry, n mesh.NodeID) (ok bool) {
	if e.Local && n == mc.id {
		return true
	}
	if e.Ptrs.Add(n) {
		return true
	}
	if n == mc.id {
		e.Local = true
		return true
	}
	return false
}

// clearSharers empties both the pointer array and the Local Bit.
func (mc *MemoryController) clearSharers(e *directory.Entry) {
	e.Ptrs.Clear()
	e.Local = false
}

func (mc *MemoryController) protocolBug(state string, src mesh.NodeID, m *Msg) {
	if mc.rec != nil {
		mc.rec.Record(fault.Violation{
			Cycle: mc.eng.Now(),
			Node:  int(mc.id),
			Kind:  "memctrl-dispatch",
			State: state,
			Msg:   fmt.Sprintf("unexpected %v from %d (addr %#x)", m.Type, src, m.Addr),
		})
		return
	}
	panic(fmt.Sprintf("coherence: node %d dir %s received unexpected %v from %d (addr %#x)",
		mc.id, state, m.Type, src, m.Addr))
}

// finishReadTransaction completes transition 10 (or its ACKC twin): the
// waiting reader gets RDATA and the entry returns to Read-Only. chain
// restores the single-reader list length for the chained scheme.
func (mc *MemoryController) finishReadTransaction(e *directory.Entry, addr directory.Addr, value uint64, store, chain bool) {
	if store {
		e.Value = value
	}
	reader, ok := mc.owner(e) // sole pointer = waiting reader
	if !ok {
		return
	}
	e.State = directory.ReadOnly
	var pos int32
	if chain {
		e.Chain, pos = 1, 1
	}
	mc.Send(reader, Msg{Type: RDATA, Addr: addr, Value: e.Value, Next: -1, Pos: pos})
}

func (mc *MemoryController) finishWriteTransaction(e *directory.Entry, addr directory.Addr) {
	writer, ok := mc.owner(e)
	if !ok {
		return
	}
	e.State = directory.ReadWrite
	// Reading the block out of memory for the WDATA reply costs a memory
	// access on top of the message that completed the transaction.
	mc.ctrl.Claim(mc.eng.Now(), MemAccess)
	mc.Send(writer, Msg{Type: WDATA, Addr: addr, Value: e.Value, Next: -1})
}

// owner returns the single expected member of the pointer set during
// Read-Write and transaction states. ok is false when the pointer set is
// malformed and a recorder absorbed the violation; callers must then drop
// the operation they were about to dispatch.
func (mc *MemoryController) owner(e *directory.Entry) (_ mesh.NodeID, ok bool) {
	mc.ownBuf = mc.sharersInto(mc.ownBuf, e)
	nodes := mc.ownBuf
	if len(nodes) != 1 {
		if mc.rec != nil {
			mc.rec.Record(fault.Violation{
				Cycle: mc.eng.Now(),
				Node:  int(mc.id),
				Kind:  "memctrl-pointers",
				State: e.State.String(),
				Msg:   fmt.Sprintf("expected a single pointer, have %v", nodes),
			})
			return -1, false
		}
		panic(fmt.Sprintf("coherence: node %d expected a single pointer, have %v (state %v)",
			mc.id, nodes, e.State))
	}
	return mesh.NodeID(nodes[0]), true
}

// chainedRead implements the linked-list read path: the new reader becomes
// the list head and learns the previous head, which its cache records as
// its next pointer.
func (mc *MemoryController) chainedRead(src mesh.NodeID, e *directory.Entry, addr directory.Addr) {
	next := mesh.NodeID(-1)
	if e.Chain > 0 {
		mc.ownBuf = e.Ptrs.NodesInto(mc.ownBuf[:0])
		prev := mc.ownBuf
		if len(prev) == 1 && mesh.NodeID(prev[0]) == src {
			// Already the head (its line was displaced): resupply the data
			// without growing the list.
			mc.Send(src, Msg{Type: RDATA, Addr: addr, Value: e.Value, Next: ChainResupply})
			return
		}
		if len(prev) == 1 {
			next = mesh.NodeID(prev[0])
		}
	}
	e.Ptrs.Clear()
	e.Ptrs.Add(src)
	e.Chain++
	mc.Send(src, Msg{Type: RDATA, Addr: addr, Value: e.Value, Next: next, Pos: int32(e.Chain)})
}
