// Package limitless is a from-scratch reproduction of "LimitLESS
// Directories: A Scalable Cache Coherence Scheme" (Chaiken, Kubiatowicz,
// Agarwal; ASPLOS-IV 1991): the LimitLESS hybrid hardware/software
// coherence protocol and a complete deterministic simulator of the Alewife
// machine it was designed for — SPARCLE-like processors with fast traps
// and block multithreading, direct-mapped caches, distributed
// memory/directory controllers, and a wormhole-routed 2-D mesh with
// contention.
//
// This package is the public facade. A simulation is a Config (machine
// shape, coherence scheme, latency parameters) plus a Workload (one of the
// paper's reconstructed applications, a trace replay, or a custom
// program); Run executes it and reports execution time and protocol
// activity. Sweep fans configurations out across goroutines for
// parameter studies; every individual run is bit-deterministic.
//
//	cfg := limitless.DefaultConfig()           // 64 procs, LimitLESS₄
//	res, err := limitless.Run(cfg, limitless.Weather(64))
//	fmt.Println(res.Cycles, res.Traps)
package limitless

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"limitless/internal/check"
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/machine"
	"limitless/internal/mesh"
	"limitless/internal/proc"
	"limitless/internal/protocol"
	"limitless/internal/sim"
	"limitless/internal/trace"
	"limitless/internal/workload"
)

// Scheme selects the directory organization by its registered name. The
// names are owned by the protocol registry (internal/protocol), which
// every layer — this API, the CLI tools, the experiments, the test
// harnesses — consults; the constants below are the registered names, and
// Schemes enumerates the registry at run time.
type Scheme string

// The coherence schemes the library implements.
const (
	// FullMap is the Censier-Feautrier full-map directory (Dir_NNB).
	FullMap Scheme = "full-map"
	// LimitedNB is Dir_iNB: i pointers, eviction on overflow.
	LimitedNB Scheme = "limited"
	// LimitLESS is the paper's protocol: i hardware pointers extended
	// through software on overflow.
	LimitLESS Scheme = "limitless"
	// SoftwareOnly traps every protocol packet (the m = 1 limit).
	SoftwareOnly Scheme = "software-only"
	// PrivateOnly caches only private data; shared references are
	// uncached round trips.
	PrivateOnly Scheme = "private-only"
	// Chained distributes the sharing list through the caches and
	// invalidates sequentially (SCI-style).
	Chained Scheme = "chained"
)

// resolveScheme maps the public name onto its registry entry. The empty
// string defaults to LimitLESS, the paper's protocol.
func resolveScheme(s Scheme) (coherence.Scheme, error) {
	if s == "" {
		s = LimitLESS
	}
	info, ok := protocol.ByName(string(s))
	if !ok {
		return 0, fmt.Errorf("limitless: unknown scheme %q", s)
	}
	return info.ID, nil
}

// SchemeInfo describes one registered coherence scheme.
type SchemeInfo struct {
	// Scheme is the registered name, usable directly in Config.Scheme.
	Scheme Scheme
	// Doc is a one-line description of the directory organization.
	Doc string
	// NeedsPointers reports whether the scheme requires Config.Pointers
	// >= 1 (the i of Dir_iNB and LimitLESS_i).
	NeedsPointers bool
	// DefaultPointers is the customary pointer count for the scheme
	// (0 when pointers are ignored).
	DefaultPointers int
}

// Schemes lists every registered coherence scheme, in registry order.
func Schemes() []SchemeInfo {
	infos := protocol.Schemes()
	out := make([]SchemeInfo, len(infos))
	for i, info := range infos {
		out[i] = SchemeInfo{
			Scheme:          Scheme(info.Name),
			Doc:             info.Doc,
			NeedsPointers:   info.NeedsPointers,
			DefaultPointers: info.DefaultPointers,
		}
	}
	return out
}

// CheckProtocolTables runs the static transition-table checker over every
// registered scheme and returns one line per defect. An empty result is
// the proof that each (directory state, meta state, message) triple on the
// memory side, and each (transaction state, message) pair on the cache
// side, is either handled by a table row or explicitly declared
// impossible, that every row is reachable, and that no impossibility
// declaration is dead.
func CheckProtocolTables() []string {
	probs := coherence.CheckTables()
	out := make([]string, len(probs))
	for i, p := range probs {
		out[i] = p.String()
	}
	return out
}

// RowCoverage reports one transition-table row's hit count from the
// runtime coverage recorder (see EnableTransitionCoverage).
type RowCoverage struct {
	// Table names the owning table: "<scheme>/memory" or "<scheme>/cache".
	Table string
	// Row is the row's stable ID, e.g. "ro-rreq-grant".
	Row string
	// Keys renders the row's match keys, e.g. "Read-Only/*/RREQ".
	Keys string
	// Doc is the row's one-line description.
	Doc string
	// Count is the number of times the row fired since the last reset.
	Count uint64
}

// EnableTransitionCoverage toggles the per-row hit counters on every
// scheme's transition tables. The counters are atomic, so the toggle and
// the counting are safe while simulations run (including under Sweep).
func EnableTransitionCoverage(on bool) { coherence.SetTableCoverage(on) }

// ResetTransitionCoverage zeroes the coverage counters.
func ResetTransitionCoverage() { coherence.ResetTableCoverage() }

// TransitionCoverage returns every transition-table row with its current
// hit count, grouped by table.
func TransitionCoverage() []RowCoverage {
	rows := coherence.TableCoverage()
	out := make([]RowCoverage, len(rows))
	for i, r := range rows {
		out[i] = RowCoverage{Table: r.Table, Row: r.Row, Keys: r.Keys, Doc: r.Doc, Count: r.Count}
	}
	return out
}

// Addr is a block address in the simulated machine's shared memory.
type Addr = uint64

// Block returns the address of block index homed at processor home.
func Block(home, index int) Addr {
	return Addr(coherence.BlockAt(mesh.NodeID(home), uint64(index)))
}

// Config describes one simulated machine. A zero Pointers, TrapService,
// Contexts, HopLatency, MaxCycles or WatchdogCycles selects the documented
// default; a negative one is refused with an error.
type Config struct {
	// Procs is the processor count. The mesh is square when Procs has an
	// integer square root, else the most square rectangle of Procs nodes.
	Procs int
	// Scheme picks the protocol (default LimitLESS).
	Scheme Scheme
	// Pointers is the hardware pointer count (the i of Dir_iNB and
	// LimitLESS_i; default 4).
	Pointers int
	// TrapService is T_s, the software handler latency in cycles
	// (default 50, the low end of the paper's Alewife estimate).
	TrapService int64
	// Contexts is the number of processor hardware contexts (default 1;
	// SPARCLE supports 4). Every workload this package builds gives each
	// processor one program, bound to context 0, so the other contexts
	// stay empty and through Run the value changes no Result. Block
	// multithreading is reachable only below this package for now.
	Contexts int
	// Topology picks the interconnect: "mesh" (default; wormhole-routed
	// 2-D mesh), "circuit" (circuit-switched mesh), "omega" (multistage
	// shuffle-exchange), or "ideal" (contention-free, for ablations).
	Topology string
	// HopLatency overrides the per-hop router delay in cycles (0 = the
	// calibrated default of 1). Raising it emulates physically larger or
	// slower machines, growing T_h while T_s stays fixed.
	HopLatency int64
	// Verify runs the structural coherence checker after the workload
	// finishes and fails the run on any violation.
	Verify bool
	// FIFOLocks places these addresses under the Section 6 FIFO-lock
	// handler. UpdateMode places addresses under update coherence.
	// ProfileAddrs places addresses in Trap-Always profiling mode. The
	// private-only scheme refuses all three with an error: it sends shared
	// references uncached, and these handlers serve cached requests only.
	FIFOLocks    []Addr
	UpdateMode   []Addr
	ProfileAddrs []Addr
	// Migratory places addresses under software FIFO eviction (Section 6:
	// "FIFO directory eviction for data structures that are known to
	// migrate from processor to processor").
	Migratory []Addr
	// ModifyGrant enables the paper's footnote-1 optimization: upgrades
	// by a block's sole reader are granted without resending the data.
	ModifyGrant bool
	// MaxCycles aborts a run that exceeds this many cycles (0 = no bound).
	MaxCycles int64
	// Shards is read by nothing: every simulation runs on one engine, and
	// Sweep and SweepN spread configurations over cores instead (see
	// DESIGN.md, "Parallel simulation").
	//
	// Deprecated: the windowed sharded engine it selected is gone.
	Shards int
	// ShardWorkers is read by nothing.
	//
	// Deprecated: the windowed sharded engine it selected is gone.
	ShardWorkers int
	// Faults is a deterministic fault-injection spec, "seed:key=value,...".
	// Keys: delay/delaymax (per-packet delivery jitter), dup/dupdelay
	// (duplicate deliveries), stall/stallperiod/stallcycles (link stall
	// windows), trap/trapextra (software-handler slowdowns), drop (lose a
	// transmission attempt in flight), corrupt (deliver it with a corrupted
	// checksum), rto/rmax (retransmit timeout and budget); rates are
	// probabilities in [0,1]. The empty string (default) injects nothing,
	// and a spec with all rates zero is exactly equivalent to no spec.
	// A nonzero drop or corrupt rate arms the mesh's reliable-delivery
	// layer (per-link sequencing, checksums, timeout-driven retransmit with
	// exponential backoff), which recovers every loss by re-sending later —
	// so recovery, like every other fault class, only ever adds latency and
	// any workload remains completable as long as the retransmit budget
	// holds out; a link that exhausts rmax attempts halts the run with a
	// structured diagnostic instead of hanging. The injected schedule
	// depends only on the spec, never on the host.
	Faults string
	// WatchdogCycles, when positive, halts a run that makes no forward
	// progress (no memory operation commits, no software handler finishes)
	// for that many cycles while events are still firing. The run then
	// returns an error carrying a structured diagnostic of the wedged state
	// instead of spinning forever. A wait must be a Prog.SpinUntil for the
	// watchdog to see it. A hand-rolled poll loop issues plain loads one at
	// a time (Prog.Load in a loop, which the processor receives one by one
	// from the program's Next), and every poll commits a load that counts
	// as progress. Such a loop on a value nothing writes never trips the
	// watchdog, and without MaxCycles it never ends. SpinUntil is the form
	// the watchdog and the deadlock error understand.
	WatchdogCycles int64

	// oracles selects the reference implementations the fast paths are
	// cross-checked against; tests set it, results never depend on it.
	oracles machine.Oracles
}

// DefaultConfig returns the paper's evaluation machine: 64 processors,
// LimitLESS with four hardware pointers, T_s = 50.
func DefaultConfig() Config {
	return Config{Procs: 64, Scheme: LimitLESS, Pointers: 4, TrapService: 50}
}

// MaxProcs is the largest machine the packed directory can address: node
// IDs are stored as 16-bit values, so a configuration may not exceed
// 65536 processors.
const MaxProcs = directory.MaxNodes

// build constructs the internal machine.
func (c Config) build() (*machine.Machine, error) {
	if c.Procs <= 0 {
		return nil, fmt.Errorf("limitless: config needs Procs > 0")
	}
	w, h := machine.Shape(c.Procs)
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Pointers", int64(c.Pointers)}, {"TrapService", c.TrapService}, {"Contexts", int64(c.Contexts)},
		{"HopLatency", c.HopLatency}, {"MaxCycles", c.MaxCycles}, {"WatchdogCycles", c.WatchdogCycles},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("limitless: Config.%s is %d; it may not be negative (0 selects its default)", f.name, f.v)
		}
	}
	if w*h > MaxProcs {
		return nil, fmt.Errorf(
			"limitless: %d processors exceed the packed directory's %d-node limit (node IDs are 16-bit); reduce Procs to at most %d",
			w*h, MaxProcs, MaxProcs)
	}
	scheme, err := resolveScheme(c.Scheme)
	if err != nil {
		return nil, err
	}
	if scheme == coherence.PrivateOnly {
		// A private-only machine sends every shared reference uncached,
		// and the Section 6 handlers these fields bind serve cached
		// requests only.
		for _, f := range []struct {
			name  string
			addrs []Addr
		}{{"FIFOLocks", c.FIFOLocks}, {"UpdateMode", c.UpdateMode}, {"ProfileAddrs", c.ProfileAddrs}} {
			if len(f.addrs) > 0 {
				return nil, fmt.Errorf("limitless: scheme %s cannot take Config.%s: it sends shared references uncached, and the Section 6 handler that field binds serves cached requests only",
					PrivateOnly, f.name)
			}
		}
	}
	params := coherence.DefaultParams(w * h)
	params.Scheme = scheme
	if c.Pointers > 0 {
		params.Pointers = c.Pointers
	}
	if c.TrapService > 0 {
		params.Timing.TrapService = sim.Time(c.TrapService)
	}
	params.ModifyGrant = c.ModifyGrant
	contexts := c.Contexts
	if contexts <= 0 {
		contexts = 1
	}
	mc := machine.Config{Width: w, Height: h, Contexts: contexts, Params: params,
		Oracles: c.oracles, Watchdog: sim.Time(c.WatchdogCycles)}
	if c.Faults != "" {
		fcfg, err := fault.Parse(c.Faults)
		if err != nil {
			return nil, fmt.Errorf("limitless: bad Faults spec: %w", err)
		}
		mc.Faults = fault.New(fcfg)
	}
	mcfg := mesh.DefaultConfig(w, h)
	override := false
	switch c.Topology {
	case "", "mesh":
	case "circuit":
		mcfg.Switching = mesh.Circuit
		override = true
	case "omega":
		mcfg.Topology = mesh.Omega
		override = true
	case "ideal":
		mcfg.Topology = mesh.Ideal
		override = true
	default:
		return nil, fmt.Errorf("limitless: unknown topology %q", c.Topology)
	}
	if c.HopLatency > 0 {
		mcfg.HopLatency = sim.Time(c.HopLatency)
		override = true
	}
	if override {
		mc.Mesh = &mcfg
	}
	m := machine.New(mc)
	for _, a := range c.FIFOLocks {
		m.RegisterFIFOLock(directory.Addr(a))
	}
	for _, a := range c.UpdateMode {
		m.RegisterUpdateMode(directory.Addr(a))
	}
	for _, a := range c.ProfileAddrs {
		m.Profile(directory.Addr(a))
	}
	for _, a := range c.Migratory {
		m.RegisterMigratory(directory.Addr(a))
	}
	return m, nil
}

// Result reports one run.
type Result struct {
	// Cycles is the total execution time — the paper's bottom-line metric.
	Cycles int64
	// Events is the number of simulation events the engine dispatched; with
	// wall-clock time it yields the events/s throughput the benchmarks
	// report.
	Events uint64
	// AvgRemoteLatency is measured T_h: mean cycles per remote miss.
	AvgRemoteLatency float64
	// HitRate is the fraction of references satisfied in the local cache.
	HitRate float64
	// Messages is the number of protocol messages injected.
	Messages uint64
	// Invalidations counts INV/CINV messages.
	Invalidations uint64
	// Traps counts protocol packets forwarded to software.
	Traps uint64
	// TrapCycles is total processor time spent in trap handlers.
	TrapCycles int64
	// Evictions counts limited-directory pointer evictions.
	Evictions uint64
	// PointerOverflows counts requests that found the pointer array full.
	PointerOverflows uint64
	// Busies and Retries count contention feedback.
	Busies, Retries uint64
	// RemoteMisses and LocalMisses split misses by home locality.
	RemoteMisses, LocalMisses uint64
	// NetworkAvgLatency is mean packet inject-to-eject latency.
	NetworkAvgLatency float64
	// NetworkFlits is the total traffic volume in flits (words).
	NetworkFlits uint64
	// ContextSwitches counts processor context switches.
	ContextSwitches uint64
	// SoftwareFraction is m: the fraction of remote misses whose handling
	// involved the software directory (Section 3.1's model parameter).
	SoftwareFraction float64
	// SoftwareVectorsPeak is the high-water mark of simultaneously
	// allocated software directory vectors (the LimitLESS handler's
	// local-memory footprint).
	SoftwareVectorsPeak int
	// ProcessorUtilization is the mean fraction of processor cycles spent
	// executing (instructions, switches, trap handlers) rather than
	// stalled — the metric the authors' earlier studies reported before
	// switching to absolute execution time.
	ProcessorUtilization float64
	// DirectoryBitsPerEntry is the hardware directory cost of the chosen
	// scheme at this machine size (the O(N) vs O(N^2) comparison).
	DirectoryBitsPerEntry int
	// DirectoryBytes is the simulator's measured directory footprint at
	// the end of the run: per-entry set headers plus spill words, summed
	// over all nodes.
	DirectoryBytes int
	// DirectoryBytesPerEntry is DirectoryBytes over the number of touched
	// directory entries (0 when the run touched none).
	DirectoryBytesPerEntry float64
	// DupSuppressed counts fault-injected duplicate deliveries the
	// controllers absorbed (always zero without a Faults spec).
	DupSuppressed uint64
	// Violations counts protocol violations recorded by the hardened
	// controllers (always zero on a healthy run).
	Violations uint64
	// FaultStats breaks down injected faults and transport recovery by
	// class (all zero without a Faults spec).
	FaultStats FaultStats
}

// FaultStats counts injected faults by class, plus the reliable
// transport's recovery work. The totals depend only on the Faults spec and
// the workload, never on the host.
type FaultStats struct {
	// Delays is packets given extra delivery delay.
	Delays uint64
	// Dups is duplicate deliveries injected at node ingress.
	Dups uint64
	// Stalls is arrivals held by a link stall window.
	Stalls uint64
	// Traps is software-handler executions lengthened by trapextra.
	Traps uint64
	// Drops is transmission attempts lost in flight.
	Drops uint64
	// Corrupts is attempts delivered corrupted and discarded by checksum.
	Corrupts uint64
	// Retransmits is transport re-sends (loss-driven plus ack-loss replays).
	Retransmits uint64
}

func resultFrom(r machine.Result) Result {
	hits := r.Misses.Hits
	total := hits + r.Misses.LocalMisses + r.Misses.RemoteMisses
	hr := 0.0
	if total > 0 {
		hr = float64(hits) / float64(total)
	}
	m := 0.0
	if r.Misses.RemoteMisses > 0 {
		m = float64(r.Coherence.Traps) / float64(r.Misses.RemoteMisses)
	}
	return Result{
		Cycles:              int64(r.Cycles),
		Events:              r.Events,
		AvgRemoteLatency:    r.Misses.AvgRemoteLatency(),
		HitRate:             hr,
		Messages:            r.Coherence.TotalSent(),
		Invalidations:       r.Coherence.InvalidationsSent,
		Traps:               r.Coherence.Traps,
		TrapCycles:          int64(r.Proc.TrapCycles),
		Evictions:           r.Coherence.Evictions,
		PointerOverflows:    r.Coherence.PointerOverflows,
		Busies:              r.Coherence.Busies,
		Retries:             r.Coherence.Retries,
		RemoteMisses:        r.Misses.RemoteMisses,
		LocalMisses:         r.Misses.LocalMisses,
		NetworkAvgLatency:   r.Network.AvgLatency(),
		NetworkFlits:        r.Network.Flits,
		ContextSwitches:     r.Proc.ContextSwitches,
		SoftwareFraction:    m,
		SoftwareVectorsPeak: r.SW.MaxResident,
		DupSuppressed:       r.Coherence.DupSuppressed,
		Violations:          r.Violations,
		FaultStats: FaultStats{
			Delays:      r.FaultStats.Delays,
			Dups:        r.FaultStats.Dups,
			Stalls:      r.FaultStats.Stalls,
			Traps:       r.FaultStats.Traps,
			Drops:       r.FaultStats.Drops,
			Corrupts:    r.FaultStats.Corrupts,
			Retransmits: r.FaultStats.Retransmits,
		},
	}
}

// Workload is a set of programs, one per processor.
type Workload struct {
	procs int
	build func() []proc.Workload
}

// Procs returns the processor count the workload was built for.
func (w Workload) Procs() int { return w.procs }

// Weather reconstructs the paper's Weather case study (Figures 8-10) for
// nprocs processors, unoptimized: the hot-spot variable is shared.
func Weather(nprocs int) Workload {
	return Workload{procs: nprocs, build: func() []proc.Workload {
		return workload.Weather(workload.DefaultWeather(nprocs))
	}}
}

// WeatherOptimized is Weather with the hot variable "flagged as read-only
// data" (the software optimization the paper describes).
func WeatherOptimized(nprocs int) Workload {
	return Workload{procs: nprocs, build: func() []proc.Workload {
		cfg := workload.DefaultWeather(nprocs)
		cfg.OptimizeHot = true
		return workload.Weather(cfg)
	}}
}

// Multigrid reconstructs the statically scheduled multigrid relaxation of
// Figure 7.
func Multigrid(nprocs int) Workload {
	return Workload{procs: nprocs, build: func() []proc.Workload {
		return workload.Multigrid(workload.DefaultMultigrid(nprocs))
	}}
}

// FFT is a butterfly-exchange computation: log2(nprocs) stages per pass,
// each pairing processor p with p XOR 2^stage. Worker-sets stay at two but
// the sharer identity changes every stage. nprocs must be a power of two.
func FFT(nprocs, iters int) Workload {
	return Workload{procs: nprocs, build: func() []proc.Workload {
		cfg := workload.DefaultFFT(nprocs)
		cfg.Iters = iters
		return workload.FFT(cfg)
	}}
}

// Synthetic is the worker-set microbenchmark validating the Section 3.1
// analytic model: every shared variable is read by workerSet processors,
// the ones that follow its owner. workerSet must lie in 1..nprocs-1: a
// smaller value runs as 1, and a larger one wraps each reader's
// subscriptions onto repeated variables and its own.
func Synthetic(nprocs, workerSet int) Workload {
	return Workload{procs: nprocs, build: func() []proc.Workload {
		return workload.Synthetic(workload.DefaultSynthetic(nprocs, workerSet))
	}}
}

// Migratory passes a token block around the ring of processors.
func Migratory(nprocs, rounds int) Workload {
	return Workload{procs: nprocs, build: func() []proc.Workload {
		return workload.Migratory(workload.MigratoryConfig{Procs: nprocs, Rounds: rounds, Work: 20})
	}}
}

// LockContention has every processor perform acquires stores to one lock
// variable (see Config.FIFOLocks for the Section 6 handler).
func LockContention(nprocs, acquires int) Workload {
	return Workload{procs: nprocs, build: func() []proc.Workload {
		return workload.LockContention(workload.DefaultLock(nprocs, acquires))
	}}
}

// RotatingReaders is the Section 6 FIFO-eviction case study: each
// processor reads one shared block once, in turn, never to return; the
// owner rewrites it at the end. Register RotatingAddr in Config.Migratory
// to handle its overflows by software FIFO eviction.
func RotatingReaders(nprocs int) Workload {
	return Workload{procs: nprocs, build: func() []proc.Workload {
		return workload.RotatingReaders(workload.RotatingConfig{Procs: nprocs})
	}}
}

// RotatingAddr returns the block RotatingReaders cycles through.
func RotatingAddr() Addr {
	return Addr(workload.RotatingConfig{}.RotAddr())
}

// LockAddr returns the lock variable used by LockContention.
func LockAddr() Addr { return Addr(workload.DefaultLock(1, 1).Lock) }

// ProducerConsumer has processor 0 rewrite a variable that the others read
// each round (see Config.UpdateMode for the Section 6 extension).
func ProducerConsumer(nprocs, rounds int) Workload {
	return Workload{procs: nprocs, build: func() []proc.Workload {
		return workload.ProducerConsumer(workload.DefaultProducerConsumer(nprocs-1, rounds))
	}}
}

// ProducerConsumerAddr returns the shared variable of ProducerConsumer.
func ProducerConsumerAddr() Addr {
	return Addr(workload.DefaultProducerConsumer(1, 1).Var)
}

// FromTrace replays a multi-thread trace through the post-mortem scheduler
// (Section 5.1's second input source). The trace's threads map one-to-one
// onto processors.
func FromTrace(r io.Reader) (Workload, error) {
	events, err := trace.Read(r)
	if err != nil {
		return Workload{}, err
	}
	return FromEvents(events)
}

// FromEvents is FromTrace for an in-memory event slice.
func FromEvents(events []trace.Event) (Workload, error) {
	pm, err := trace.NewPostMortem(events)
	if err != nil {
		return Workload{}, err
	}
	return Workload{procs: pm.Threads(), build: pm.Workloads}, nil
}

// Prog is the custom-workload programming surface: continuation-passing
// memory operations against the simulated machine.
type Prog struct {
	t *workload.Thread
}

// Load reads addr; then receives the value. Every Load commits, so the
// watchdog counts it as progress: wait for a value with SpinUntil, not
// with a loop of Loads, which on a value nothing writes never trips
// WatchdogCycles and without MaxCycles never ends.
func (p *Prog) Load(addr Addr, then func(v uint64, p *Prog)) {
	p.t.Load(directory.Addr(addr), func(v uint64, t *workload.Thread) { then(v, &Prog{t}) })
}

// Store writes value to addr.
func (p *Prog) Store(addr Addr, value uint64, then func(p *Prog)) {
	p.t.Store(directory.Addr(addr), value, func(_ uint64, t *workload.Thread) { then(&Prog{t}) })
}

// FetchAdd atomically adds delta; then receives the old value.
func (p *Prog) FetchAdd(addr Addr, delta uint64, then func(old uint64, p *Prog)) {
	p.t.FetchAdd(directory.Addr(addr), delta, func(old uint64, t *workload.Thread) { then(old, &Prog{t}) })
}

// Compute spends cycles of local work.
func (p *Prog) Compute(cycles int64, then func(p *Prog)) {
	p.t.Compute(sim.Time(cycles), func(_ uint64, t *workload.Thread) { then(&Prog{t}) })
}

// SpinUntil polls addr, with a 12-cycle backoff between polls, until pred
// holds; then receives the satisfying value. The processor runs the polls
// itself, so a wait costs the program one step however long it spins.
// pred must be a pure function of the polled value while the spin lasts —
// no call counters, no reads of state that changes during the wait —
// because the processor evaluates it once for a run of polls that read
// the same value. SpinUntil is the wait the watchdog and the deadlock
// error understand: its failed polls are not progress, so a spin on a
// value nothing writes trips WatchdogCycles, and with nothing to end the
// wait it ends as the deadlock error Run describes. A hand-rolled loop of
// Loads gets neither (see WatchdogCycles).
func (p *Prog) SpinUntil(addr Addr, pred func(uint64) bool, then func(v uint64, p *Prog)) {
	p.t.SpinUntil(directory.Addr(addr), pred, 12, func(v uint64, t *workload.Thread) { then(v, &Prog{t}) })
}

// Loop runs body n times sequentially, then then.
func (p *Prog) Loop(n int, body func(i int, p *Prog, next func(*Prog)), then func(*Prog)) {
	workload.Loop(p.t, n, func(i int, t *workload.Thread, next func(*workload.Thread)) {
		body(i, &Prog{t}, func(p2 *Prog) { next(p2.t) })
	}, func(t *workload.Thread) { then(&Prog{t}) })
}

// Custom builds a workload from a per-processor program.
func Custom(nprocs int, program func(proc int, p *Prog)) Workload {
	return Workload{procs: nprocs, build: func() []proc.Workload {
		out := make([]proc.Workload, nprocs)
		for i := 0; i < nprocs; i++ {
			i := i
			out[i] = workload.NewThread(func(t *workload.Thread) {
				program(i, &Prog{t})
			})
		}
		return out
	}}
}

func finishResult(m *machine.Machine, r machine.Result) Result {
	out := resultFrom(r)
	if r.Cycles > 0 {
		total := float64(int64(r.Cycles)) * float64(len(m.Nodes))
		out.ProcessorUtilization = float64(int64(r.Proc.BusyCycles)) / total
	}
	dm := m.DirectoryMemory()
	out.DirectoryBitsPerEntry = dm.HardwareBitsPerEntry
	out.DirectoryBytes = dm.MeasuredBytes
	out.DirectoryBytesPerEntry = dm.MeasuredBytesPerEntry
	return out
}

// NormalizeFaults validates a fault-injection spec and returns its
// canonical "seed:key=value,..." form (defaults filled in, keys in fixed
// order), so front ends can echo exactly what a run will inject. An empty
// spec normalizes to the empty string.
func NormalizeFaults(spec string) (string, error) {
	if spec == "" {
		return "", nil
	}
	cfg, err := fault.Parse(spec)
	if err != nil {
		return "", err
	}
	return cfg.String(), nil
}

// Run executes the workload on a machine built from cfg. A program that
// spins on a value nothing will write, with no MaxCycles, watchdog or
// fault plan to end the wait, returns a deadlock error.
func Run(cfg Config, wl Workload) (Result, error) {
	if cfg.Procs == 0 {
		cfg.Procs = wl.procs
	}
	if cfg.Procs != wl.procs {
		return Result{}, fmt.Errorf("limitless: config has %d processors but workload was built for %d",
			cfg.Procs, wl.procs)
	}
	m, err := cfg.build()
	if err != nil {
		return Result{}, err
	}
	// The machine is private to this call, so its pooled resources can be
	// recycled for the next Run once the results are collected (the deferred
	// call runs after every return value below has been computed).
	defer m.Release()
	for i, w := range wl.build() {
		m.SetWorkload(mesh.NodeID(i), 0, w)
	}
	var res machine.Result
	if cfg.MaxCycles > 0 {
		var done bool
		res, done = m.RunUntil(sim.Time(cfg.MaxCycles))
		if d := m.Diagnostic(); d != nil {
			return finishResult(m, res), fmt.Errorf("limitless: %s", d)
		}
		if !done {
			return finishResult(m, res), fmt.Errorf("limitless: run exceeded %d cycles", cfg.MaxCycles)
		}
	} else {
		res, err = runAll(m)
		if err != nil {
			return Result{}, err
		}
		if d := m.Diagnostic(); d != nil {
			return finishResult(m, res), fmt.Errorf("limitless: %s", d)
		}
	}
	if cfg.Verify {
		if bad := check.EndState(m); len(bad) > 0 {
			return finishResult(m, res), fmt.Errorf("limitless: coherence violations: %v", bad)
		}
	}
	return finishResult(m, res), nil
}

// runAll is m.Run for a caller's workload. A program that spins on a value
// nothing will write — a SpinUntil predicate that never holds, with no
// cycle limit or watchdog to end the wait — drains the event queue with
// every unfinished processor's spin off it, which the machine reports as a
// deadlock panic. That is the caller's input, not a simulator bug, so it
// comes back as an error; every other panic passes through.
func runAll(m *machine.Machine) (res machine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if !staleSpins(m) {
				panic(r)
			}
			err = fmt.Errorf("limitless: %v", r)
		}
	}()
	return m.Run(), nil
}

// staleSpins reports whether m's event queue holds nothing but spins off
// it, and every unfinished processor is one of them.
func staleSpins(m *machine.Machine) bool {
	off := 0
	for _, n := range m.Nodes {
		switch {
		case n.Proc.OffQueue():
			off++
		case !n.Proc.Done():
			return false
		}
	}
	return off > 0 && m.Eng.Pending() == off
}

// Sweep runs one workload under many configurations on a bounded worker
// pool of runtime.GOMAXPROCS(0) goroutines (each simulation stays
// deterministic, so concurrency never changes results — only wall-clock
// time). Results are returned in configuration order; the first error, in
// that order, is reported alongside. Use SweepN to pick the pool size.
func Sweep(cfgs []Config, mk func(cfg Config) Workload) ([]Result, error) {
	return SweepN(cfgs, mk, 0)
}

// SweepN is Sweep with an explicit worker count; workers <= 0 selects
// runtime.GOMAXPROCS(0). A machine holds about 3.6 MB of live state after a
// 64-processor Weather run (11 MB at 256 processors, 43 MB at 1024), so
// bounding the pool bounds peak memory where the old goroutine-per-config
// fan-out made a 1000-point sweep allocate 1000 machines at once; each
// finished machine hands its memory on to the points that follow.
func SweepN(cfgs []Config, mk func(cfg Config) Workload, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				results[i], errs[i] = Run(cfgs[i], mk(cfgs[i]))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
