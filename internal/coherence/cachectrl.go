package coherence

import (
	"fmt"
	"sort"

	"limitless/internal/cache"
	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/mesh"
	"limitless/internal/protocol"
	"limitless/internal/sim"
)

// Placement maps a block address to its home node — the node whose memory
// module and directory govern the block. Memory (and with it the
// directory) is distributed among the processing nodes (Section 1).
type Placement func(directory.Addr) mesh.NodeID

// Op is a processor memory operation.
type Op uint8

const (
	// Load reads a word.
	Load Op = iota
	// Store writes a word.
	Store
)

func (o Op) String() string {
	if o == Load {
		return "load"
	}
	return "store"
}

// Request is one processor memory reference presented to the cache
// controller. Done is invoked when the reference commits, with the value
// read (loads) or written (stores). Shared marks data that more than one
// processor touches; the private-only baseline refuses to cache it.
type Request struct {
	Op     Op
	Addr   directory.Addr
	Value  uint64
	Shared bool
	Done   func(value uint64)
	// Modify, when non-nil on a Store, turns the reference into an atomic
	// read-modify-write: the stored value becomes Modify(old) and Done
	// receives the old value. Atomicity holds because the store commits in
	// the same event as the exclusive fill — no other request can reach
	// the block in between. This models the fetch-and-op primitives the
	// paper's combining-tree barriers rely on.
	Modify func(old uint64) uint64
}

// Outcome tells the processor, at issue time, how a reference will be
// satisfied. The Alewife processor forces a context switch "only on memory
// requests that require the use of the interconnection network" (Section
// 2), i.e. on MissRemote.
type Outcome uint8

const (
	// OutcomeHit: satisfied by the local cache after CacheHit cycles.
	OutcomeHit Outcome = iota
	// OutcomeMissLocal: miss serviced by this node's own memory module.
	OutcomeMissLocal
	// OutcomeMissRemote: miss requiring the interconnection network.
	OutcomeMissRemote
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMissLocal:
		return "local-miss"
	default:
		return "remote-miss"
	}
}

// MissStats separates local and remote miss latencies, the quantities of
// the Section 3.1 model (T_h is the average remote access latency).
type MissStats struct {
	Hits          uint64
	LocalMisses   uint64
	LocalCycles   sim.Time
	RemoteMisses  uint64
	RemoteCycles  sim.Time
	UncachedTrips uint64
}

// AvgRemoteLatency returns measured T_h in cycles.
func (m MissStats) AvgRemoteLatency() float64 {
	if m.RemoteMisses == 0 {
		return 0
	}
	return float64(m.RemoteCycles) / float64(m.RemoteMisses)
}

// txn is an outstanding miss transaction (the controller's MSHR entry):
// at most one per block per cache.
type txn struct {
	req    Request
	msg    *Msg
	issued sim.Time
	queued []Request
	// retries counts consecutive BUSY responses; it drives the bounded
	// exponential backoff when Timing.RetryBackoffMax is set.
	retries int
	// walkParked records a chained invalidation walk that reached this
	// cache while the read was outstanding; the read's reply resumes it
	// (see cacheChainParkWalk).
	walkParked bool
}

// CacheController is the cache side of one node: it satisfies processor
// references from the local cache, turns misses into protocol requests,
// and answers the directory's invalidations.
type CacheController struct {
	eng    *sim.Engine
	nw     *mesh.ShardPort
	id     mesh.NodeID
	params Params
	home   Placement

	cache *cache.Cache
	// txns is the MSHR table: outstanding miss transactions, at most one
	// per block. It is a linear-scan slice rather than a map — a node
	// rarely has more than a couple of misses in flight (one per processor
	// context), so the scan beats map hashing on the dispatch hot path.
	txns []txnEntry
	// chainNext holds this cache's list positions for the chained scheme,
	// newest first: each position's number and next pointer. A cache can
	// occupy several positions: when its line is displaced it keeps the
	// pointer (a zombie) so a CINV walk can continue, and a re-read then
	// prepends a fresh position at the head. Each CINV visit consumes
	// exactly one entry, so no position — and in particular no tail
	// marker — is ever lost or duplicated.
	chainNext map[directory.Addr][]chainLink
	// updateMode marks blocks registered for the Section 6 update-mode
	// extension: stores travel as value-carrying UWREQ round trips and the
	// block is only ever cached read-only.
	updateMode map[directory.Addr]bool

	stats Stats
	miss  MissStats
	rec   *fault.Recorder

	// Closure-free dispatch: sendH re-sends a transaction's request message
	// (initial issue and BUSY retries), compH delivers pooled completion
	// callbacks.
	sendH     txnSendHandler
	compH     completionHandler
	freeComps []*completion
	freeTxns  []*txn
	arena     msgArena

	// tbl is the scheme's cache-side transition table. sharedUncached
	// caches SchemeInfo.SharedUncached (the private-only baseline routes
	// shared references around the cache), and cctx is the reusable
	// dispatch scratch context.
	tbl            *protocol.Table[cacheCtx]
	sharedUncached bool
	cctx           cacheCtx

	// spin is the node's processor while its spin-waits may leave the
	// event queue (SetWaker): the controller's events wake it first, and
	// HandleMem refuses to run while it is off the queue.
	spin Spinner
}

// txnEntry is one MSHR slot.
type txnEntry struct {
	addr directory.Addr
	t    *txn
}

// findTxn returns the outstanding transaction for addr, or nil.
func (cc *CacheController) findTxn(addr directory.Addr) *txn {
	for i := range cc.txns {
		if cc.txns[i].addr == addr {
			return cc.txns[i].t
		}
	}
	return nil
}

// removeTxn deletes addr's MSHR slot, returning its transaction (nil when
// absent). Slot order carries no protocol meaning, so the last entry is
// swapped into the hole.
func (cc *CacheController) removeTxn(addr directory.Addr) *txn {
	for i := range cc.txns {
		if cc.txns[i].addr == addr {
			t := cc.txns[i].t
			last := len(cc.txns) - 1
			cc.txns[i] = cc.txns[last]
			cc.txns[last] = txnEntry{}
			cc.txns = cc.txns[:last]
			return t
		}
	}
	return nil
}

// txnSendHandler sends (or re-sends) a transaction's request to its home.
type txnSendHandler struct{ cc *CacheController }

func (h *txnSendHandler) OnEvent(arg any) {
	h.cc.wake()
	t := arg.(*txn)
	h.cc.send(h.cc.home(t.msg.Addr), t.msg)
}

// completion carries one Done callback from commit event to invocation.
type completion struct {
	done  func(value uint64)
	value uint64
}

type completionHandler struct{ cc *CacheController }

func (h *completionHandler) OnEvent(arg any) {
	h.cc.wake()
	c := arg.(*completion)
	done, v := c.done, c.value
	c.done = nil
	h.cc.freeComps = append(h.cc.freeComps, c)
	done(v)
}

// NewCacheController builds the cache side of node id.
func NewCacheController(eng *sim.Engine, nw *mesh.ShardPort, id mesh.NodeID, params Params, home Placement, c *cache.Cache) *CacheController {
	params.validate()
	if home == nil {
		panic("coherence: nil placement")
	}
	cc := &CacheController{
		eng:        eng,
		nw:         nw,
		id:         id,
		params:     params,
		home:       home,
		cache:      c,
		chainNext:  make(map[directory.Addr][]chainLink),
		updateMode: make(map[directory.Addr]bool),
	}
	cc.sendH = txnSendHandler{cc}
	cc.compH = completionHandler{cc}
	cc.tbl = policyFor(params.Scheme).cache
	cc.sharedUncached = params.Scheme.Info().SharedUncached
	cc.cctx.cc = cc
	return cc
}

// ID returns the node this controller belongs to.
func (cc *CacheController) ID() mesh.NodeID { return cc.id }

// Cache exposes the underlying cache (for checkers and stats).
func (cc *CacheController) Cache() *cache.Cache { return cc.cache }

// Stats returns the protocol counters.
func (cc *CacheController) Stats() Stats { return cc.stats }

// Misses returns the hit/miss latency accounting.
func (cc *CacheController) Misses() MissStats { return cc.miss }

// SetWaker hands the controller, and the network port its node receives
// on, the node's processor while that processor's spin-waits may leave
// the event queue (proc.Processor.Attach): each of the controller's
// events, and each delivery to the node, wakes it first.
func (cc *CacheController) SetWaker(w Spinner) {
	cc.spin = w
	cc.nw.SetWaker(cc.id, w)
}

// wake returns the node's off-queue spin, if any, to the event queue at
// the start of one of the controller's events, settling its steps due
// before the current cycle.
func (cc *CacheController) wake() {
	if cc.spin != nil {
		cc.spin.Wake(cc.eng.Now() - 1)
	}
}

// PollHits performs n load hits on addr in a row in closed form — the
// cache reads and hit counts of n AccessSync loads that hit — and returns
// the value read. It reports false, changing nothing, when the line cannot
// be read.
func (cc *CacheController) PollHits(addr directory.Addr, n uint64) (uint64, bool) {
	v, ok := cc.cache.ReadN(addr, n)
	if ok {
		cc.miss.Hits += n
	}
	return v, ok
}

// Outstanding reports the number of in-flight miss transactions.
func (cc *CacheController) Outstanding() int { return len(cc.txns) }

// SetRecorder installs a violation recorder. With a recorder present,
// protocol-impossible messages are recorded and dropped instead of
// panicking, so a fault-injected or wedged run can terminate with a
// diagnostic rather than a crash.
func (cc *CacheController) SetRecorder(r *fault.Recorder) { cc.rec = r }

// OutstandingOp describes one in-flight miss transaction for diagnostics.
type OutstandingOp struct {
	Addr    directory.Addr
	Type    MsgType
	Issued  sim.Time
	Retries int
}

// OutstandingOps returns the in-flight transactions sorted by address, for
// watchdog diagnostic dumps.
func (cc *CacheController) OutstandingOps() []OutstandingOp {
	if len(cc.txns) == 0 {
		return nil
	}
	ops := make([]OutstandingOp, 0, len(cc.txns))
	for _, e := range cc.txns {
		ops = append(ops, OutstandingOp{Addr: e.addr, Type: e.t.msg.Type, Issued: e.t.issued, Retries: e.t.retries})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Addr < ops[j].Addr })
	return ops
}

// protocolBug records a cache-side dispatch violation when a recorder is
// installed (the message is then dropped by the caller); otherwise it
// preserves the original panic.
func (cc *CacheController) protocolBug(context string, src mesh.NodeID, m *Msg) {
	if cc.rec != nil {
		cc.rec.Record(fault.Violation{
			Cycle: cc.eng.Now(),
			Node:  int(cc.id),
			Kind:  "cachectrl-dispatch",
			State: context,
			Msg:   fmt.Sprintf("unexpected %v from %d (addr %#x)", m.Type, src, m.Addr),
		})
		return
	}
	panic(fmt.Sprintf("coherence: node %d cache [%s] got unexpected %v from %d (addr %#x)",
		cc.id, context, m.Type, src, m.Addr))
}

func (cc *CacheController) send(dst mesh.NodeID, m *Msg) {
	cc.stats.Sent[m.Type]++
	cc.nw.SendFrom(cc.id, dst, m.Flits(cc.params.BlockWords), m)
}

// newMsg builds an outgoing message in the controller's bump arena.
func (cc *CacheController) newMsg(m Msg) *Msg { return cc.arena.newMsg(m) }

// Recycle returns the controller's message chunks to the pool for the next
// machine. Every message the controller sent is invalid afterwards, so it
// may only be called once nothing of the run is reachable any more
// (Machine.Release); the controller must not be used again. A second
// Recycle does nothing.
func (cc *CacheController) Recycle() { cc.arena.recycle() }

// newTxn takes an MSHR record from the free list (or the heap) and stamps
// it with the primary request and issue time.
func (cc *CacheController) newTxn(req Request) *txn {
	var t *txn
	if n := len(cc.freeTxns); n > 0 {
		t = cc.freeTxns[n-1]
		cc.freeTxns[n-1] = nil
		cc.freeTxns = cc.freeTxns[:n-1]
	} else {
		t = &txn{}
	}
	t.req, t.issued = req, cc.eng.Now()
	return t
}

// SetUpdateMode registers (or clears) addr as an update-mode block. Stores
// to such a block carry the value to the home node's software handler,
// which propagates it to the read copies instead of invalidating them.
func (cc *CacheController) SetUpdateMode(addr directory.Addr, on bool) {
	if on {
		cc.updateMode[addr] = true
	} else {
		delete(cc.updateMode, addr)
	}
}

// missOutcome classifies a miss by where its home memory is.
func (cc *CacheController) missOutcome(addr directory.Addr) Outcome {
	if cc.home(addr) == cc.id {
		return OutcomeMissLocal
	}
	return OutcomeMissRemote
}

// Access presents one processor reference. The Done callback fires when
// the reference commits — after CacheHit cycles on a hit, or after the
// full protocol transaction on a miss. The returned Outcome is known at
// issue time and drives the processor's context-switch decision.
func (cc *CacheController) Access(req Request) Outcome {
	out, v := cc.AccessSync(req)
	if out == OutcomeHit {
		cc.complete(req, v, cc.params.Timing.CacheHit)
	}
	return out
}

// AccessSync is the synchronous form of Access: on a hit it performs the
// cache update and returns the committed value instead of scheduling a
// completion event, leaving delivery timing to the caller. The fused
// processor path consumes the value inline after CacheHit cycles of its
// own pipeline cursor; the event path schedules its completion handler at
// the same deadline Access always used. Misses behave exactly as Access:
// the transaction machinery is engaged and the value return is meaningless.
func (cc *CacheController) AccessSync(req Request) (Outcome, uint64) {
	// The private-only baseline never caches shared data: every shared
	// reference is an uncached round trip to the home memory module.
	if cc.sharedUncached && req.Shared {
		return cc.uncached(req), 0
	}
	// Update-mode stores carry their value to the home's software handler.
	// The len guard keeps the map lookup off the hot path for the common
	// case of no registered update-mode blocks.
	if req.Op == Store && len(cc.updateMode) != 0 && cc.updateMode[req.Addr] {
		return cc.uncached(req), 0
	}

	switch req.Op {
	case Load:
		if v, hit := cc.cache.Read(req.Addr); hit {
			cc.miss.Hits++
			return OutcomeHit, v
		}
	case Store:
		if req.Modify != nil {
			if old, ok := cc.cache.Peek(req.Addr); ok && cc.cache.State(req.Addr) == cache.ReadWrite {
				if !cc.cache.Write(req.Addr, req.Modify(old)) {
					panic("coherence: RMW write missed on owned line")
				}
				cc.miss.Hits++
				return OutcomeHit, old
			}
		} else if cc.cache.Write(req.Addr, req.Value) {
			cc.miss.Hits++
			return OutcomeHit, req.Value
		}
	}

	return cc.accessMiss(req), 0
}

// accessMiss engages the MSHR machinery for a reference that missed:
// it joins an existing transaction for the block or starts a new one.
func (cc *CacheController) accessMiss(req Request) Outcome {
	if t := cc.findTxn(req.Addr); t != nil {
		t.queued = append(t.queued, req)
		return cc.missOutcome(req.Addr)
	}
	t := cc.newTxn(req)
	if req.Op == Load {
		t.msg = cc.newMsg(Msg{Type: RREQ, Addr: req.Addr, Next: -1})
	} else {
		t.msg = cc.newMsg(Msg{Type: WREQ, Addr: req.Addr, Next: -1})
	}
	cc.txns = append(cc.txns, txnEntry{req.Addr, t})
	cc.eng.AfterHandler(cc.params.Timing.CacheHit, &cc.sendH, t)
	return cc.missOutcome(req.Addr)
}

// uncached performs a round trip to the home memory module without caching.
func (cc *CacheController) uncached(req Request) Outcome {
	if t := cc.findTxn(req.Addr); t != nil {
		t.queued = append(t.queued, req)
		return cc.missOutcome(req.Addr)
	}
	t := cc.newTxn(req)
	if req.Op == Load {
		t.msg = cc.newMsg(Msg{Type: URREQ, Addr: req.Addr, Next: -1})
	} else {
		t.msg = cc.newMsg(Msg{Type: UWREQ, Addr: req.Addr, Value: req.Value, Next: -1, Modify: req.Modify})
	}
	cc.txns = append(cc.txns, txnEntry{req.Addr, t})
	cc.miss.UncachedTrips++
	cc.eng.AfterHandler(cc.params.Timing.CacheHit, &cc.sendH, t)
	return cc.missOutcome(req.Addr)
}

func (cc *CacheController) complete(req Request, value uint64, after sim.Time) {
	if req.Done == nil {
		return
	}
	var c *completion
	if n := len(cc.freeComps); n > 0 {
		c = cc.freeComps[n-1]
		cc.freeComps[n-1] = nil
		cc.freeComps = cc.freeComps[:n-1]
	} else {
		c = &completion{}
	}
	c.done, c.value = req.Done, value
	cc.eng.AfterHandler(after, &cc.compH, c)
}

// finish closes the transaction for addr, delivers the primary value, and
// replays any references that queued behind the miss.
func (cc *CacheController) finish(addr directory.Addr, value uint64) {
	t := cc.removeTxn(addr)
	if t == nil {
		panic(fmt.Sprintf("coherence: node %d finishing unknown transaction %#x", cc.id, addr))
	}

	elapsed := cc.eng.Now() - t.issued
	if cc.home(addr) == cc.id {
		cc.miss.LocalMisses++
		cc.miss.LocalCycles += elapsed
	} else {
		cc.miss.RemoteMisses++
		cc.miss.RemoteCycles += elapsed
	}

	cc.complete(t.req, value, 0)
	for _, q := range t.queued {
		cc.Access(q)
	}
	// Recycle the MSHR record. Safe here, after the replay loop: the record
	// left cc.txns above, so no replayed Access can have claimed it yet, and
	// under in-order point-to-point delivery no sendH event can still be
	// pending when the response that triggered finish has arrived. Clearing
	// queued entries drops their Done/Modify closures.
	for i := range t.queued {
		t.queued[i] = Request{}
	}
	t.queued = t.queued[:0]
	t.req = Request{}
	t.msg = nil
	t.retries = 0
	t.walkParked = false
	cc.freeTxns = append(cc.freeTxns, t)
}

// fill installs a block delivered by RDATA/WDATA and sends REPM for any
// displaced Read-Write victim. Clean Read-Only victims vanish silently,
// leaving a stale directory pointer, exactly as in the paper (only
// "Replace Modified" generates traffic).
func (cc *CacheController) fill(addr directory.Addr, st cache.LineState, value uint64) {
	victim, displaced := cc.cache.Fill(addr, st, value)
	if displaced && victim.State == cache.ReadWrite {
		cc.send(cc.home(victim.Addr), cc.newMsg(Msg{Type: REPM, Addr: victim.Addr, Value: victim.Value, Next: -1}))
	}
}

// HandleMem processes a memory-to-cache protocol message by dispatching it
// through the scheme's cache-side transition table. The table's state axis
// is the MSHR transaction state, so "reply without a matching transaction"
// shows up as a declared-impossible cell rather than a hand-coded check.
func (cc *CacheController) HandleMem(src mesh.NodeID, m *Msg) {
	// Every controller path that changes a cache line starts here. An
	// off-queue spin reads its line without looking, so reaching this point
	// with one means an event of the node forgot to wake it.
	if cc.spin != nil && cc.spin.OffQueue() {
		panic(fmt.Sprintf("coherence: node %d cache got %v (addr %#x) at cycle %d with its spin off the event queue: the event did not wake it",
			cc.id, m.Type, m.Addr, cc.eng.Now()))
	}
	cc.stats.Received[m.Type]++
	// Fault-injected re-deliveries never re-run the cache-side protocol
	// engine: the original delivery already advanced the transaction, so a
	// duplicate RDATA/INV/BUSY would corrupt MSHR and chain state. The
	// memory side answers duplicates idempotently; the cache side just
	// absorbs them.
	if m.Dup {
		cc.stats.DupSuppressed++
		return
	}
	t := cc.findTxn(m.Addr)
	st := txnState(t)
	c := &cc.cctx
	c.src, c.m, c.t = src, m, t
	if v := cc.tbl.Dispatch(st, protocol.Any, uint8(m.Type), c); v != protocol.Matched {
		cc.tableViolation(v, st, src, m)
	}
}
