// Package machine assembles Alewife nodes — SPARCLE processor, 64 KB
// direct-mapped cache, cache/memory controller, distributed directory and
// memory, and network interface (Figure 1 of the paper) — into a complete
// simulated multiprocessor on a wormhole-routed 2-D mesh.
package machine

import (
	"fmt"
	"sync"

	"limitless/internal/cache"
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/mesh"
	"limitless/internal/proc"
	"limitless/internal/sim"
	"limitless/internal/stats"
	"limitless/internal/swdir"
)

// Shape returns the most square Width × Height mesh of n nodes: the
// factorization n = w·h with the smallest w ≥ √n, so a square count gives
// a square and a prime count an n × 1 row. It panics unless n ≥ 1.
func Shape(n int) (w, h int) {
	if n < 1 {
		panic(fmt.Sprintf("machine: no mesh shape for %d nodes", n))
	}
	w = 1
	for w*w < n || n%w != 0 {
		w++
	}
	return w, n / w
}

// Config describes a machine.
type Config struct {
	// Width and Height give the mesh shape (8×8 = the paper's 64 nodes).
	Width, Height int
	// Params is the coherence configuration (scheme, pointers, timing).
	Params coherence.Params
	// Mesh overrides the network's topology, switching and hop latency;
	// nil uses mesh.DefaultConfig.
	Mesh *mesh.Config
	// Contexts is the number of hardware contexts per processor (SPARCLE
	// has 4; 1 gives a blocking processor).
	Contexts int
	// Shards is read by nothing: every machine runs on one engine.
	//
	// Deprecated: the windowed sharded engine it selected is gone.
	Shards int
	// ShardWorkers is read by nothing.
	//
	// Deprecated: the windowed sharded engine it selected is gone.
	ShardWorkers int
	// Faults, when non-nil, injects the plan's deterministic faults —
	// packet delays, link stall windows, duplicate deliveries, trap
	// slowdowns — throughout the machine. Runs with a fault plan install a
	// violation recorder, so protocol-impossible messages are recorded
	// instead of panicking, and enable bounded exponential retry backoff
	// (RetryBackoffMax defaults to 256 when unset) so stall windows do not
	// become BUSY storms.
	Faults *fault.Plan
	// Watchdog, when positive, is the no-progress budget in cycles: if
	// events keep firing for that long with no memory operation committing
	// and no software handler finishing, the run halts with a structured
	// Diagnostic instead of spinning forever.
	Watchdog sim.Time
}

// Node is one Alewife processing node.
type Node struct {
	ID    mesh.NodeID
	Cache *cache.Cache
	CC    *coherence.CacheController
	MC    *coherence.MemoryController
	Proc  *proc.Processor
	// Handler is the node's trap-handler mux; extensions bind per-address
	// handlers into it.
	Handler *swdir.Mux
	// SW is the default LimitLESS overflow handler (nil for schemes that
	// never trap). SWFull is the full-software FSM used by SoftwareOnly.
	SW     *swdir.Handler
	SWFull *swdir.SoftwareHandler

	// m is the node's machine.
	m *Machine
}

// Machine is the assembled multiprocessor.
type Machine struct {
	// Eng is the engine every node runs on.
	Eng   *sim.Engine
	Net   *mesh.Network
	Nodes []*Node
	cfg   Config

	// port is the network's one port, which every controller sends
	// through.
	port *mesh.ShardPort

	rec  *fault.Recorder
	diag *Diagnostic

	// released makes Release run once: its nodes' components may serve
	// another machine by the time a second call comes.
	released bool

	// dupInj counts duplicate deliveries injected at the nodes' ingress.
	dupInj uint64

	// replay is the Dup-marked copy of a transport replay while it
	// dispatches; dispatches never nest, so the nodes share one.
	replay coherence.Msg
}

// New builds a machine. Processors have no workloads yet; bind them with
// SetWorkload and call Run.
func New(cfg Config) *Machine {
	if cfg.Width < 1 || cfg.Height < 1 {
		panic("machine: bad mesh shape")
	}
	if cfg.Contexts < 1 {
		cfg.Contexts = 1
	}
	n := cfg.Width * cfg.Height
	cfg.Params.Nodes = n

	if cfg.Faults != nil && cfg.Params.Timing.RetryBackoffMax == 0 {
		cfg.Params.Timing.RetryBackoffMax = 256
	}
	mcfg := mesh.DefaultConfig(cfg.Width, cfg.Height)
	if cfg.Mesh != nil {
		mcfg = *cfg.Mesh
		mcfg.Width, mcfg.Height = cfg.Width, cfg.Height
	}
	mcfg.Faults = cfg.Faults

	m := &Machine{cfg: cfg}
	if cfg.Faults != nil || cfg.Watchdog > 0 {
		m.rec = &fault.Recorder{}
	}
	// One engine, and one network port that flushes each cycle's sends at
	// the end of the cycle.
	m.Eng = sim.New()
	m.Net = mesh.New(mcfg)
	lookahead := mcfg.MinPacketLatency(coherence.MinMsgFlits)
	m.port = m.Net.Bind(m.Eng, lookahead)
	if cfg.Faults != nil && cfg.Faults.Config().LossEnabled() {
		// Loss classes active: interpose the reliable transport. The
		// retransmit timeout is floored at the lookahead and the
		// backoff cap reuses the coherence layer's RetryBackoffMax. Budget
		// exhaustion aborts the run (from the flush) so drive() can report
		// a structured diagnostic instead of hanging into the watchdog.
		m.Net.EnableTransport(cfg.Faults, lookahead, cfg.Params.Timing.RetryBackoffMax)
		m.Net.OnTransportStuck(func(mesh.StuckLink) { m.Eng.Abort() })
	}
	m.Nodes = make([]*Node, n)
	for id := range m.Nodes {
		m.Nodes[id] = m.buildNode(mesh.NodeID(id))
	}
	return m
}

func (m *Machine) buildNode(id mesh.NodeID) *Node {
	cfg := m.cfg
	eng, port := m.Eng, m.port
	c := cache.New(cache.DefaultConfig())
	cc := coherence.NewCacheController(eng, port, id, cfg.Params, c)
	p := proc.New(eng, cc, cfg.Params.Timing, cfg.Contexts)
	mc := coherence.NewMemoryController(eng, port, id, cfg.Params, p)

	node := &Node{ID: id, Cache: c, CC: cc, MC: mc, Proc: p, m: m}
	if m.rec != nil {
		mc.SetRecorder(m.rec)
		cc.SetRecorder(m.rec)
	}
	p.SetFaultPlan(cfg.Faults)

	// Default trap handler by scheme. Every node gets a mux so extensions
	// can bind special handlers even on hardware-only schemes (profiling).
	if cfg.Params.Scheme.Info().TrapDefault {
		node.SWFull = swdir.NewSoftware(mc)
		node.Handler = swdir.NewMux(node.SWFull)
	} else {
		node.SW = swdir.New(mc)
		node.Handler = swdir.NewMux(node.SW)
	}
	p.Attach(mc, node.Handler)
	m.Net.Register(id, node.receive)
	return node
}

// receive is the node's network ejection handler: it hands each protocol
// packet to the memory controller or the cache controller.
func (n *Node) receive(pkt *mesh.Packet) {
	msg, ok := pkt.Payload.(*coherence.Msg)
	if !ok {
		panic(fmt.Sprintf("machine: node %d received non-protocol payload %T", n.ID, pkt.Payload))
	}
	// A transport replay (ack-loss retransmission of a delivered packet)
	// is dispatched as a Dup-marked copy so the controllers' idempotent
	// dup suppression absorbs it. The payload is the network's: a handler
	// reads it and never writes it.
	if pkt.Replay {
		n.m.replay = coherence.DupOf(msg)
		n.dispatch(pkt.Src, &n.m.replay)
		return
	}
	// Duplicate injection happens at ingress: the decision hashes
	// (delivery cycle, src, dst, block), and the re-delivery only touches
	// this node's controllers.
	if f := n.m.cfg.Faults; f != nil && !msg.Dup {
		eng := n.m.Eng
		if extra, dup := f.Duplicate(eng.Now(), int(pkt.Src), int(n.ID),
			uint64(msg.Addr)^uint64(msg.Type)); dup {
			n.m.dupInj++
			d, _ := dupPool.Get().(*dupArrival)
			if d == nil {
				d = new(dupArrival)
			}
			d.n, d.src, d.msg = n, pkt.Src, coherence.DupOf(msg)
			eng.AtHandler(eng.Now()+extra, dupHandler{}, d)
		}
	}
	n.dispatch(pkt.Src, msg)
}

// dupArrival is one injected duplicate on its way to node n's controllers.
// The records are pooled process-wide: each returns to dupPool once its
// event has dispatched the copy it carries, so machines share them and a
// run allocates none once the pool holds a previous run's.
type dupArrival struct {
	n   *Node
	src mesh.NodeID
	msg coherence.Msg
}

var dupPool sync.Pool

// dupHandler delivers a dupArrival when its event fires.
type dupHandler struct{}

func (dupHandler) OnEvent(arg any) {
	d := arg.(*dupArrival)
	n := d.n
	n.Proc.Wake(n.m.Eng.Now() - 1)
	n.dispatch(d.src, &d.msg)
	*d = dupArrival{}
	dupPool.Put(d)
}

// dispatch hands a protocol message to the controller it is addressed to.
// Neither keeps msg past the call.
func (n *Node) dispatch(src mesh.NodeID, msg *coherence.Msg) {
	if msg.Type.ToMemory() {
		n.MC.Handle(src, msg)
	} else {
		n.CC.HandleMem(src, msg)
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetWorkload binds a workload to context slot of node id.
func (m *Machine) SetWorkload(id mesh.NodeID, slot int, wl proc.Workload) {
	m.Nodes[id].Proc.SetWorkload(slot, wl)
}

// RegisterFIFOLock declares addr a FIFO lock (Section 6) at its home node
// and returns the handler for fairness inspection.
func (m *Machine) RegisterFIFOLock(addr directory.Addr) *swdir.LockHandler {
	home := m.Nodes[coherence.HomeOf(addr)]
	h := swdir.NewLock(home.MC)
	h.Register(addr)
	home.Handler.Bind(addr, h)
	return h
}

// RegisterUpdateMode declares addr update-mode coherent (Section 6): its
// home traps every request to an update handler, and every cache routes
// stores to it as value-carrying round trips.
func (m *Machine) RegisterUpdateMode(addr directory.Addr) *swdir.UpdateHandler {
	home := m.Nodes[coherence.HomeOf(addr)]
	h := swdir.NewUpdate(home.MC)
	h.Register(addr)
	home.Handler.Bind(addr, h)
	for _, n := range m.Nodes {
		n.CC.SetUpdateMode(addr, true)
	}
	return h
}

// RegisterMigratory declares addr a migratory block (Section 6): pointer
// overflows FIFO-evict the oldest reader in software instead of extending
// the directory.
func (m *Machine) RegisterMigratory(addr directory.Addr) *swdir.FIFOEvict {
	home := m.Nodes[coherence.HomeOf(addr)]
	h := swdir.NewFIFOEvict(home.MC)
	h.Register(addr)
	home.Handler.Bind(addr, h)
	return h
}

// Profile places addr in Trap-Always mode at its home node so every
// transaction is observed in software (the Section 6 profiling extension)
// and returns the software handler recording it.
func (m *Machine) Profile(addr directory.Addr) *swdir.SoftwareHandler {
	home := m.Nodes[coherence.HomeOf(addr)]
	h := swdir.NewSoftware(home.MC)
	home.MC.Dir().Entry(addr).Meta = directory.TrapAlways
	home.Handler.Bind(addr, h)
	return h
}

// WorkerSetCensus returns the distribution of observed worker-set sizes
// (per-block high-water marks of simultaneously recorded read copies)
// across every allocated directory entry in the machine. This is the
// measurement behind the paper's premise that "many shared data structures
// have a small worker-set" — run it under full-map to see true sizes
// unclipped by pointer limits.
func (m *Machine) WorkerSetCensus() *stats.Histogram {
	var h stats.Histogram
	for _, n := range m.Nodes {
		n.MC.Dir().ForEach(func(_ directory.Addr, e *directory.Entry) {
			if e.MaxSharers > 0 {
				h.Add(uint64(e.MaxSharers))
			}
		})
	}
	return &h
}

// Recorder returns the machine's violation recorder, or nil when neither a
// fault plan nor a watchdog is configured.
func (m *Machine) Recorder() *fault.Recorder { return m.rec }

// Diagnostic returns the failure dump of the last run, or nil when the run
// completed (or has not happened yet). A non-nil diagnostic means the
// machine halted without finishing its workloads — watchdog trip or drained
// event queue with processors still blocked.
func (m *Machine) Diagnostic() *Diagnostic { return m.diag }

// Release hands the machine's run-scoped memory — every node's
// controllers, processor, cache and IPI queue with the buffers they keep,
// cache pages, directory tables and entry chunks, engine buckets and event
// free lists, the port's send log, delivery records and spare payloads —
// to process-wide pools, so the next machine built in the process reuses it
// instead of allocating. It accepts a machine halted in any state: events
// still queued, spins off the queue, a cycle-limit cut, a watchdog trip or
// a transport abort.
// The machine must not be used afterwards: its nodes' components may
// already serve another machine. A second Release does nothing, checked
// here rather than by each component, which cannot tell its own second
// recycle from the first recycle of the machine that drew it from the
// pool since. Callers that inspect node state after a run simply never
// call Release.
func (m *Machine) Release() {
	if m.released {
		return
	}
	m.released = true
	for _, n := range m.Nodes {
		n.Cache.Release()
		n.CC.Recycle()
		n.MC.Recycle()
		n.Proc.Recycle()
	}
	m.Eng.Recycle()
	m.Net.Recycle()
}

// Result summarizes a run.
type Result struct {
	// Cycles is the total execution time — the paper's bottom-line metric.
	Cycles sim.Time
	// Events is the number of simulation events processed.
	Events uint64
	// Network is the interconnect activity summary.
	Network mesh.Stats
	// Coherence sums protocol counters across all nodes (both sides).
	Coherence coherence.Stats
	// Misses sums cache-side latency accounting across nodes.
	Misses coherence.MissStats
	// Proc sums processor counters across nodes.
	Proc proc.Stats
	// SW sums software-handler counters across nodes.
	SW swdir.Stats
	// Violations counts recorded protocol violations (zero on a healthy
	// run; nonzero means the hardening layer absorbed protocol-impossible
	// messages instead of crashing).
	Violations uint64
	// FaultStats counts injected faults and transport recovery actions by
	// class. All zero when no fault plan is installed.
	FaultStats FaultStats
}

// FaultStats counts injected faults by class, plus the reliable transport's
// recovery actions.
type FaultStats struct {
	Delays      uint64 // packets given extra delivery delay
	Dups        uint64 // duplicate deliveries injected at ingress
	Stalls      uint64 // arrivals held by a node-ingress stall window
	Traps       uint64 // protocol traps sent down the slow software path
	Drops       uint64 // transmission attempts lost in flight
	Corrupts    uint64 // attempts delivered with a corrupted checksum and discarded
	Retransmits uint64 // transport resends (loss-driven plus ack-loss replays)
}

// AvgRemoteLatency returns measured T_h.
func (r Result) AvgRemoteLatency() float64 { return r.Misses.AvgRemoteLatency() }

// progress is the watchdog's forward-progress counter: committed memory
// operations, a spin-wait counting once at its exit (proc.Progress), plus
// completed software-handler invocations. Retries, BUSY bounces and polls
// that fail their spin predicate deliberately do not count, so a retry
// storm that commits nothing, or a spin on a value nobody writes, trips the
// watchdog. Every term only grows, as RunGuarded requires.
func (m *Machine) progress() uint64 {
	var p uint64
	for _, n := range m.Nodes {
		p += n.Proc.Progress() + n.MC.Stats().SWHandled
	}
	return p
}

// drive executes events up to limit, guarded by the configured watchdog.
// On a transport-stuck abort or a watchdog trip it records a Diagnostic and
// returns the halt time.
func (m *Machine) drive(limit sim.Time) sim.Time {
	var end sim.Time
	var tripped bool
	if m.cfg.Watchdog > 0 {
		w := sim.Watchdog{Interval: m.cfg.Watchdog, Progress: m.progress}
		end, tripped = m.Eng.RunGuarded(w, limit)
	} else {
		end = m.Eng.RunUntil(limit)
	}
	if stuck := m.Net.StuckLinks(); len(stuck) > 0 {
		// The reliable transport gave up on a link and aborted the run;
		// report the first exhaustion (canonical order, so deterministic).
		s := stuck[0]
		m.diag = m.buildDiagnostic(end, fmt.Sprintf(
			"reliable transport: link %d->%d exhausted its retransmit budget (%d attempts, seq %d unacked since cycle %d)",
			s.Src, s.Dst, s.Attempts, s.Seq, s.FirstSent))
	} else if tripped {
		m.diag = m.buildDiagnostic(end,
			fmt.Sprintf("watchdog: no forward progress for %d cycles with events still pending", m.cfg.Watchdog))
	}
	return end
}

// Run starts every processor and drives the simulation until all
// workloads finish. It panics on deadlock (event queue drained with
// processors still blocked) — in a deterministic fault-free simulator that
// is always a protocol bug, and hiding it would corrupt experiments. A
// spin left off the queue when it drains polls a value nothing will ever
// write, so it is a deadlock too, where the same spin queued step by step
// would loop forever. With a fault plan or watchdog configured, the panic
// becomes a structured Diagnostic (available via Diagnostic(), listing
// the spinning contexts) so chaos runs terminate cleanly.
func (m *Machine) Run() Result {
	for _, n := range m.Nodes {
		n.Proc.Start()
	}
	end := m.drive(sim.Forever)
	if m.diag == nil {
		for _, n := range m.Nodes {
			if !n.Proc.Done() {
				state := "blocked"
				if n.Proc.OffQueue() {
					state = "spinning on a value nothing will write"
				}
				if m.rec != nil {
					m.diag = m.buildDiagnostic(end,
						fmt.Sprintf("deadlock: event queue drained with node %d still %s", n.ID, state))
					break
				}
				panic(fmt.Sprintf("machine: deadlock — node %d still %s at cycle %d (outstanding=%d)",
					n.ID, state, end, n.CC.Outstanding()))
			}
		}
	}
	return m.collect(end)
}

// RunUntil drives the simulation to at most limit cycles, returning the
// partial result and whether every workload finished. A watchdog trip
// (visible via Diagnostic()) also ends the run early.
func (m *Machine) RunUntil(limit sim.Time) (Result, bool) {
	for _, n := range m.Nodes {
		n.Proc.Start()
	}
	end := m.drive(limit)
	done := true
	for _, n := range m.Nodes {
		if !n.Proc.Done() {
			done = false
		}
	}
	return m.collect(end), done
}

func (m *Machine) collect(end sim.Time) Result {
	res := Result{Cycles: end, Events: m.Eng.Processed(), Network: m.Net.Stats()}
	if m.rec != nil {
		res.Violations = uint64(m.rec.Len())
	}
	for _, n := range m.Nodes {
		cs := n.CC.Stats()
		ms := n.MC.Stats()
		res.Coherence.Add(&cs)
		res.Coherence.Add(&ms)
		miss := n.CC.Misses()
		res.Misses.Hits += miss.Hits
		res.Misses.LocalMisses += miss.LocalMisses
		res.Misses.LocalCycles += miss.LocalCycles
		res.Misses.RemoteMisses += miss.RemoteMisses
		res.Misses.RemoteCycles += miss.RemoteCycles
		res.Misses.UncachedTrips += miss.UncachedTrips
		ps := n.Proc.Stats()
		res.Proc.Instructions += ps.Instructions
		res.Proc.Loads += ps.Loads
		res.Proc.Stores += ps.Stores
		res.Proc.ContextSwitches += ps.ContextSwitches
		res.Proc.TrapsServiced += ps.TrapsServiced
		res.Proc.TrapCycles += ps.TrapCycles
		res.Proc.BusyCycles += ps.BusyCycles
		res.Proc.Stalls += ps.Stalls
		res.Proc.FaultTraps += ps.FaultTraps
		if n.SW != nil {
			sw := n.SW.Stats()
			addSW(&res.SW, sw)
		}
		if n.SWFull != nil {
			sw := n.SWFull.Stats()
			addSW(&res.SW, sw)
		}
	}
	res.FaultStats.Delays, res.FaultStats.Stalls = m.Net.FaultCounts()
	ts := m.Net.TransportStats()
	res.FaultStats.Drops = ts.Drops
	res.FaultStats.Corrupts = ts.Corrupts
	res.FaultStats.Retransmits = ts.Retransmits + ts.Replays
	res.FaultStats.Dups = m.dupInj
	res.FaultStats.Traps = res.Proc.FaultTraps
	return res
}

func addSW(dst *swdir.Stats, s swdir.Stats) {
	dst.OverflowTraps += s.OverflowTraps
	dst.WriteTerminations += s.WriteTerminations
	dst.VectorsAllocated += s.VectorsAllocated
	dst.VectorsFreed += s.VectorsFreed
	if s.MaxResident > dst.MaxResident {
		dst.MaxResident = s.MaxResident
	}
	dst.PacketsHandled += s.PacketsHandled
	dst.InvalidationsSent += s.InvalidationsSent
}

// interface checks
var (
	_ coherence.TrapSink = (*proc.Processor)(nil)
	_ proc.Handler       = (*swdir.Mux)(nil)
)
