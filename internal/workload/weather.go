package workload

import (
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/proc"
	"limitless/internal/sim"
)

// WeatherConfig reconstructs the sharing structure of the paper's Weather
// forecasting case study (Figures 8–10):
//
//   - software combining trees distribute the barrier variables;
//   - one variable initialized by processor 0 and then read by all of the
//     other processors every phase — the unoptimized hot spot whose
//     worker-set of N thrashes limited directories forever (Figure 8: each
//     read miss evicts another reader's pointer, which forces that
//     reader's next access to miss, round and round);
//   - a family of variables with a worker-set of exactly two processors
//     (the structure that makes LimitLESS₁ "especially bad", Figure 10);
//   - per-group broadcast variables rewritten by a group leader and read
//     by its GroupSize members each phase. Their worker-set exceeds the
//     hardware pointer count, so a few percent of remote references stay
//     software-handled every phase — the paper's m ≈ 3% — giving the
//     T_s sensitivity visible in Figure 9;
//   - read-only coefficient tables with worker-sets cycling through
//     TableFans (2, 3, 5, 9 by default). Written once, read every phase,
//     they separate Dir₁NB from Dir₂NB from Dir₄NB: a k-pointer directory
//     thrashes exactly the tables whose worker-set exceeds k, while
//     LimitLESS absorbs each table with a handful of one-time traps.
//
// With OptimizeHot set, the hot variable is "flagged as read-only data":
// every processor reads a private copy instead, reproducing the paper's
// observation that the optimized program runs as well under a limited
// directory as under full-map.
type WeatherConfig struct {
	Procs         int
	Iters         int
	ComputeCycles sim.Time
	HotReads      int   // hot-variable consultations per phase
	NeighborVars  int   // worker-set-2 variables per processor
	GroupSize     int   // members reading each group broadcast variable
	TableFans     []int // worker-set sizes of the read-only tables
	PrivateBlocks int   // private working set touched per phase
	OptimizeHot   bool
	BarrierFanIn  int
}

// DefaultWeather returns the configuration used for the Figure 8–10
// reproductions.
func DefaultWeather(nprocs int) WeatherConfig {
	g := 16
	if g > nprocs {
		g = nprocs
	}
	return WeatherConfig{
		Procs:         nprocs,
		Iters:         6,
		ComputeCycles: 600,
		HotReads:      6,
		NeighborVars:  3,
		GroupSize:     g,
		TableFans:     []int{2, 3, 5, 9},
		PrivateBlocks: 24,
		BarrierFanIn:  4,
	}
}

// HotAddr is the hot-spot variable: homed at node 0.
func (cfg WeatherConfig) HotAddr() directory.Addr { return coherence.BlockAt(0, 0) }

// neighborVar returns processor p's k-th shared variable; its worker-set
// is {p, p+1 mod Procs}.
func (cfg WeatherConfig) neighborVar(p mesh.NodeID, k int) directory.Addr {
	return coherence.BlockAt(p, uint64(1+k))
}

// groupLeader returns the leader of p's broadcast group.
func (cfg WeatherConfig) groupLeader(p int) mesh.NodeID {
	return mesh.NodeID((p / cfg.GroupSize) * cfg.GroupSize)
}

// groupVar is the broadcast variable of p's group, homed at the leader.
func (cfg WeatherConfig) groupVar(p int) directory.Addr {
	return coherence.BlockAt(cfg.groupLeader(p), 500)
}

func (cfg WeatherConfig) private(p mesh.NodeID, k int) directory.Addr {
	return coherence.BlockAt(p, uint64(2000+k))
}

// table returns the read-only coefficient table owned by processor q; its
// worker-set is {q .. q+fan-1 mod Procs} with fan = TableFans[q mod len].
func (cfg WeatherConfig) table(q int) directory.Addr {
	return coherence.BlockAt(mesh.NodeID(q), 700)
}

// tableFan returns the worker-set size of processor q's table.
func (cfg WeatherConfig) tableFan(q int) int {
	f := cfg.TableFans[q%len(cfg.TableFans)]
	if f > cfg.Procs {
		f = cfg.Procs
	}
	return f
}

// subscriptions returns the table owners whose reader sets include p.
func (cfg WeatherConfig) subscriptions(p int) []int {
	var subs []int
	for q := 0; q < cfg.Procs; q++ {
		d := ((p - q) + cfg.Procs) % cfg.Procs
		if d < cfg.tableFan(q) {
			subs = append(subs, q)
		}
	}
	return subs
}

// Weather builds one workload per processor.
func Weather(cfg WeatherConfig) []proc.Workload {
	if cfg.BarrierFanIn == 0 {
		cfg.BarrierFanIn = 4
	}
	if cfg.GroupSize < 1 {
		cfg.GroupSize = 1
	}
	bar := NewBarrier(cfg.Procs, cfg.BarrierFanIn, SequentialAllocator(5000))

	wls := make([]proc.Workload, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		p := p
		me := mesh.NodeID(p)
		nbr := mesh.NodeID((p + 1) % cfg.Procs)
		isLeader := int(cfg.groupLeader(p)) == p
		subs := cfg.subscriptions(p)
		wls[p] = NewThread(func(t *Thread) {
			hotSlice := cfg.ComputeCycles / sim.Time(cfg.HotReads)
			if hotSlice < 1 {
				hotSlice = 1
			}
			// Every continuation below is allocated once per thread and
			// reused across iterations; the loop indices are mutable
			// captured state (the Loop pattern in thread.go).
			// The phases run strictly sequentially, so advancing an index
			// inside one continuation before re-entering the phase closure
			// is safe. A fresh closure per executed operation — the
			// straightforward CPS phrasing — was the simulator's largest
			// steady-state allocation source.
			var (
				iter           int
				j, ti, ni, si  int
				phase, hot     func(*Thread)
				rest, tables   func(*Thread)
				own, succReads func(*Thread)
				afterHotRead, afterPrivStore, afterCompute Cont
				afterPublish, afterTable                   Cont
				ownLoaded, ownStored, afterSucc            Cont
				done                                       func(*Thread)
			)
			// phase runs one outer iteration: the hot-read sweep, then the
			// rest of the phase, then the barrier.
			phase = func(t *Thread) {
				if iter >= cfg.Iters {
					return
				}
				j = 0
				hot(t)
			}
			// The hot-read sweep: the model state is consulted throughout
			// the phase, interleaved with private grid updates and local
			// compute. Under a limited directory each consultation can miss
			// again — another reader's miss evicted this processor's
			// pointer in between — which is the thrashing loop of Figure 8.
			hot = func(t *Thread) {
				if j >= cfg.HotReads {
					rest(t)
					return
				}
				if cfg.OptimizeHot || p == 0 {
					// Processor 0 owns the value; the optimization gives
					// everyone a local read-only copy.
					t.LoadPrivate(cfg.private(me, 1999), afterHotRead)
					return
				}
				t.Load(cfg.HotAddr(), afterHotRead)
			}
			afterHotRead = func(_ uint64, t *Thread) {
				t.StorePrivate(cfg.private(me, j%cfg.PrivateBlocks), uint64(iter), afterPrivStore)
			}
			afterPrivStore = func(_ uint64, t *Thread) {
				t.Compute(hotSlice, afterCompute)
			}
			afterCompute = func(_ uint64, t *Thread) {
				j++
				hot(t)
			}
			// The phase body after the hot-read sweep: group broadcast,
			// coefficient tables, worker-set-2 exchange, then the barrier.
			rest = func(t *Thread) {
				if isLeader {
					t.Store(cfg.groupVar(p), uint64(iter+1), afterPublish)
					return
				}
				t.Load(cfg.groupVar(p), afterPublish)
			}
			afterPublish = func(_ uint64, t *Thread) {
				ti = 0
				tables(t)
			}
			// Read-only coefficient tables this processor subscribes to:
			// the Dir₁/Dir₂/Dir₄ separator.
			tables = func(t *Thread) {
				if ti >= len(subs) {
					ni = 0
					own(t)
					return
				}
				t.Load(cfg.table(subs[ti]), afterTable)
			}
			afterTable = func(_ uint64, t *Thread) {
				ti++
				tables(t)
			}
			// Worker-set-2 traffic: refresh own variables (read then
			// write), then read the successor's; then join the barrier.
			own = func(t *Thread) {
				if ni >= cfg.NeighborVars {
					si = 0
					succReads(t)
					return
				}
				t.Load(cfg.neighborVar(me, ni), ownLoaded)
			}
			ownLoaded = func(old uint64, t *Thread) {
				t.Store(cfg.neighborVar(me, ni), old+1, ownStored)
			}
			ownStored = func(_ uint64, t *Thread) {
				ni++
				own(t)
			}
			succReads = func(t *Thread) {
				if si >= cfg.NeighborVars {
					bar.Wait(t, p, uint64(iter+1), done)
					return
				}
				t.Load(cfg.neighborVar(nbr, si), afterSucc)
			}
			afterSucc = func(_ uint64, t *Thread) {
				si++
				succReads(t)
			}
			done = func(t *Thread) {
				iter++
				phase(t)
			}
			if p == 0 {
				// "Initialized by one processor and then read by all of
				// the other processors."
				t.Store(cfg.HotAddr(), 1, func(_ uint64, t *Thread) { phase(t) })
				return
			}
			phase(t)
		})
	}
	return wls
}
