// Package machine assembles Alewife nodes — SPARCLE processor, 64 KB
// direct-mapped cache, cache/memory controller, distributed directory and
// memory, and network interface (Figure 1 of the paper) — into a complete
// simulated multiprocessor on a wormhole-routed 2-D mesh.
package machine

import (
	"fmt"
	"runtime"

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

// Block returns the block address for the index-th block homed at node
// home (see coherence.BlockAt).
func Block(home mesh.NodeID, index uint64) directory.Addr {
	return coherence.BlockAt(home, index)
}

// HomeOf recovers the home node of a block address.
func HomeOf(addr directory.Addr) mesh.NodeID {
	return coherence.HomeOf(addr)
}

// Config describes a machine.
type Config struct {
	// Width and Height give the mesh shape (8×8 = the paper's 64 nodes).
	Width, Height int
	// Params is the coherence configuration (scheme, pointers, timing).
	Params coherence.Params
	// Mesh overrides network timing; zero value uses mesh.DefaultConfig.
	Mesh *mesh.Config
	// Contexts is the number of hardware contexts per processor (SPARCLE
	// has 4; 1 gives a blocking processor).
	Contexts int
	// CacheLines overrides the cache geometry (default 4096 = 64 KB).
	CacheLines int
	// CacheWays sets the cache associativity (default 1, Alewife's
	// direct-mapped geometry).
	CacheWays int
	// Oracles selects reference implementations in place of the fast
	// paths (see DESIGN.md, "Reference configuration"). Every combination
	// gives bit-identical results; the zero value runs every fast path.
	Oracles Oracles
	// Shards, when above one, splits the nodes into contiguous tiles, each
	// with its own engine and its own goroutine, executed concurrently in
	// conservative time windows with all network traffic claimed at the
	// window barriers. Every Shards value gives the same Result: one engine
	// (Shards 0 or 1, or any Shards on one worker) claims each cycle's
	// network traffic at the end of that cycle in the same canonical
	// order. The partition never shows in results and only goroutines buy
	// speed, so New builds one tile per worker: ShardCount clamps Shards to
	// the worker count and to the node count.
	Shards int
	// ShardWorkers is the number of goroutines executing shards
	// concurrently (0 = GOMAXPROCS), and so caps the shards built. It
	// affects only wall-clock speed, never results.
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

// Oracles is a bitmask of reference implementations, each the slow twin a
// fast path was built from and is cross-checked against.
type Oracles uint8

const (
	// OracleHeap runs the engines on the binary heap instead of the timing
	// wheel.
	OracleHeap Oracles = 1 << iota
	// OracleBoxed keeps directory sharer sets in heap pointer-set objects
	// instead of packed inline/arena storage.
	OracleBoxed
	// OracleEventProc schedules one event per processor pipeline step
	// instead of fusing hit and compute chains.
	OracleEventProc
	// OracleFixedWindows advances the sharded engine in fixed
	// lookahead-wide windows instead of slack-adaptive ones.
	OracleFixedWindows

	// AllOracles selects every reference implementation at once.
	AllOracles = OracleHeap | OracleBoxed | OracleEventProc | OracleFixedWindows
)

// DefaultConfig returns the paper's evaluation machine: 64 processors,
// LimitLESS with four pointers.
func DefaultConfig() Config {
	cfg := Config{Width: 8, Height: 8, Contexts: 1}
	cfg.Params = coherence.DefaultParams(64)
	return cfg
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
}

// Machine is the assembled multiprocessor.
type Machine struct {
	// Eng is the first engine: the only one unless the machine runs
	// windowed shards.
	Eng   *sim.Engine
	Net   *mesh.Network
	Nodes []*Node
	cfg   Config

	// One engine and network port per shard, the node→shard map, and the
	// driver, which runs one engine straight through and several in
	// windows.
	engines   []*sim.Engine
	ports     []*mesh.ShardPort
	nodeShard []int
	sharded   *sim.ShardedEngine

	rec  *fault.Recorder
	diag *Diagnostic

	// dupInj counts duplicate deliveries injected at each node's ingress.
	// Per-node slots: each node's handler runs on its own shard's goroutine,
	// and no two nodes share a slot, so no synchronization is needed.
	dupInj []uint64
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
	if cfg.Params.BlockWords == 0 {
		cfg.Params.BlockWords = 4
	}
	if cfg.CacheLines == 0 {
		cfg.CacheLines = 4096
	}
	if cfg.Params.Scheme.Info().TrapDefault {
		cfg.Params.DefaultMeta = directory.TrapAlways
	}

	cfg.Shards = ShardCount(cfg.Shards, cfg.ShardWorkers, n)
	if cfg.Faults != nil && cfg.Params.Timing.RetryBackoffMax == 0 {
		cfg.Params.Timing.RetryBackoffMax = 256
	}
	sched := sim.SchedWheel
	if cfg.Oracles&OracleHeap != 0 {
		sched = sim.SchedHeap
	}
	if cfg.Oracles&OracleBoxed != 0 {
		cfg.Params.Storage = directory.StorageBoxed
	}

	mcfg := mesh.DefaultConfig(cfg.Width, cfg.Height)
	if cfg.Mesh != nil {
		mcfg = *cfg.Mesh
		mcfg.Width, mcfg.Height = cfg.Width, cfg.Height
	}
	mcfg.Faults = cfg.Faults

	m := &Machine{cfg: cfg}
	m.dupInj = make([]uint64, n)
	if cfg.Faults != nil || cfg.Watchdog > 0 {
		m.rec = &fault.Recorder{}
	}
	// One engine per shard. Several engines run in windows and need
	// partition-independent cycle-tagged sequence keys; one engine keeps
	// plain keys, and its port flushes at the end of every cycle.
	k := max(1, cfg.Shards)
	m.engines = make([]*sim.Engine, k)
	for i := range m.engines {
		e := sim.New()
		e.SetScheduler(sched)
		e.SetCycleSeq(k > 1)
		m.engines[i] = e
	}
	m.Eng = m.engines[0]
	m.Net = mesh.New(mcfg)
	// Contiguous balanced tiles: node id lives on shard id·k/n.
	m.nodeShard = make([]int, n)
	for id := range m.nodeShard {
		m.nodeShard[id] = id * k / n
	}
	window := mcfg.MinPacketLatency(coherence.MinMsgFlits)
	m.ports = m.Net.ShardPorts(m.engines, m.nodeShard, window)
	m.sharded = sim.NewShardedEngine(m.engines, window,
		func(before sim.Time, mins []sim.Time) { m.Net.FlushWindow(before, mins) })
	if cfg.Oracles&OracleFixedWindows != 0 {
		m.sharded.SetWindowMode(sim.WindowFixed)
	}
	m.sharded.SetHeldProbe(m.Net.HeldMin)
	if cfg.Faults != nil && cfg.Faults.Config().LossEnabled() {
		// Loss classes active: interpose the reliable transport. The
		// retransmit timeout is floored at the lookahead window and the
		// backoff cap reuses the coherence layer's RetryBackoffMax. Budget
		// exhaustion aborts the run (from the single-threaded flush) so
		// drive() can report a structured diagnostic instead of hanging
		// into the watchdog.
		m.Net.EnableTransport(cfg.Faults, window, cfg.Params.Timing.RetryBackoffMax)
		m.Net.OnTransportStuck(func(mesh.StuckLink) { m.sharded.Abort() })
	}
	for id := mesh.NodeID(0); int(id) < n; id++ {
		m.Nodes = append(m.Nodes, m.buildNode(id))
	}
	return m
}

// ShardCount returns the number of shards New builds for the requested
// shard and worker counts on a machine of the given node count: 0 when
// shards is 0 (New then builds its one engine), else one shard per worker,
// at most shards and at most one per node. workers <= 0 means GOMAXPROCS.
func ShardCount(shards, workers, nodes int) int {
	if shards <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(shards, workers, nodes)
}

func (m *Machine) buildNode(id mesh.NodeID) *Node {
	cfg := m.cfg
	eng := m.engines[m.nodeShard[id]]
	port := m.ports[m.nodeShard[id]]
	c := cache.New(cache.Config{Lines: cfg.CacheLines, Ways: cfg.CacheWays, BlockWords: cfg.Params.BlockWords})
	cc := coherence.NewCacheController(eng, port, id, cfg.Params, HomeOf, c)
	p := proc.New(eng, cc, cfg.Params.Timing, cfg.Contexts)
	if cfg.Oracles&OracleEventProc != 0 {
		p.SetMode(proc.ModeEvent)
	}
	mc := coherence.NewMemoryController(eng, port, id, cfg.Params, p)

	node := &Node{ID: id, Cache: c, CC: cc, MC: mc, Proc: p}
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

	m.Net.Register(id, func(pkt *mesh.Packet) {
		msg, ok := pkt.Payload.(*coherence.Msg)
		if !ok {
			panic(fmt.Sprintf("machine: node %d received non-protocol payload %T", id, pkt.Payload))
		}
		// A transport replay (ack-loss retransmission of a delivered packet)
		// is dispatched as a Dup-marked clone so the controllers' idempotent
		// dup suppression absorbs it. The clone matters: the payload pointer
		// is shared with the original delivery and must never be mutated.
		if pkt.Replay {
			clone := *msg
			clone.Dup = true
			if clone.Type.ToMemory() {
				mc.Handle(pkt.Src, &clone)
			} else {
				cc.HandleMem(pkt.Src, &clone)
			}
			return
		}
		// Duplicate injection happens at ingress, on the destination node's
		// own engine: the decision hashes (delivery cycle, src, dst, block),
		// all of which are identical across shard partitions, and the
		// re-delivery only touches this node's controllers, so the injection
		// is invariant under Shards.
		if f := cfg.Faults; f != nil && !msg.Dup {
			if extra, dup := f.Duplicate(eng.Now(), int(pkt.Src), int(id),
				uint64(msg.Addr)^uint64(msg.Type)); dup {
				m.dupInj[id]++
				clone := *msg
				clone.Dup = true
				src := pkt.Src
				eng.At(eng.Now()+extra, func() {
					p.Wake(eng.Now() - 1)
					if clone.Type.ToMemory() {
						mc.Handle(src, &clone)
					} else {
						cc.HandleMem(src, &clone)
					}
				})
			}
		}
		if msg.Type.ToMemory() {
			mc.Handle(pkt.Src, msg)
		} else {
			cc.HandleMem(pkt.Src, msg)
		}
	})
	return node
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
	home := m.Nodes[HomeOf(addr)]
	h := swdir.NewLock(home.MC)
	h.Register(addr)
	home.Handler.Bind(addr, h)
	return h
}

// RegisterUpdateMode declares addr update-mode coherent (Section 6): its
// home traps every request to an update handler, and every cache routes
// stores to it as value-carrying round trips.
func (m *Machine) RegisterUpdateMode(addr directory.Addr) *swdir.UpdateHandler {
	home := m.Nodes[HomeOf(addr)]
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
	home := m.Nodes[HomeOf(addr)]
	h := swdir.NewFIFOEvict(home.MC)
	h.Register(addr)
	home.Handler.Bind(addr, h)
	return h
}

// Profile places addr in Trap-Always mode at its home node so every
// transaction is observed in software (the Section 6 profiling extension)
// and returns the software handler recording it.
func (m *Machine) Profile(addr directory.Addr) *swdir.SoftwareHandler {
	home := m.Nodes[HomeOf(addr)]
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

// Release hands the machine's run-scoped memory — cache pages, message
// chunks, directory tables and entry chunks, engine buckets and event free
// lists, port send logs and delivery records — to process-wide pools, so the next machine built in the process
// reuses it instead of allocating. It stops the shard workers first, and
// accepts a machine halted in any state: events still queued,
// pends parked, a cycle-limit cut, a watchdog trip or a transport abort.
// The machine must not be used afterwards, and a second Release does
// nothing. Callers that inspect node state after a run simply never call
// Release.
func (m *Machine) Release() {
	m.sharded.Stop()
	for _, n := range m.Nodes {
		n.Cache.Release()
		n.CC.Recycle()
		n.MC.Recycle()
	}
	for _, e := range m.engines {
		e.Recycle()
	}
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
// recovery actions. Every counter is accumulated in a partition-independent
// order, so the totals are identical at any shard count.
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
		end, tripped = m.sharded.RunGuarded(w, limit)
	} else {
		end = m.sharded.RunUntil(limit)
	}
	m.sharded.Stop()
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
	res := Result{Cycles: end, Events: m.sharded.Processed(), Network: m.Net.Stats()}
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
	for _, c := range m.dupInj {
		res.FaultStats.Dups += c
	}
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
