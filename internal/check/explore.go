package check

import (
	"fmt"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/machine"
	"limitless/internal/mesh"
	"limitless/internal/sim"
	"limitless/internal/workload"
)

// ExploreConfig parameterizes the schedule explorer.
type ExploreConfig struct {
	// Scheme and Pointers pick the protocol under test.
	Scheme   coherence.Scheme
	Pointers int
	// Width, Height give the machine shape (keep it small: 2x2 or 3x3).
	Width, Height int
	// Blocks is the number of contended blocks (all homed at node 0 and
	// node 1 to concentrate conflicts).
	Blocks int
	// OpsPerProc is the number of random operations each processor issues.
	OpsPerProc int
	// Seeds is how many jittered schedules to explore.
	Seeds int
	// JitterMax perturbs message delivery by up to this many cycles.
	JitterMax sim.Time
	// Deadline bounds each run; exceeding it is reported as a livelock.
	Deadline sim.Time
}

// DefaultExplore returns a configuration that explores a 2x2 machine.
func DefaultExplore(scheme coherence.Scheme, pointers int) ExploreConfig {
	return ExploreConfig{
		Scheme:     scheme,
		Pointers:   pointers,
		Width:      2,
		Height:     2,
		Blocks:     3,
		OpsPerProc: 30,
		Seeds:      25,
		JitterMax:  40,
		Deadline:   2_000_000,
	}
}

// Report summarizes an exploration.
type Report struct {
	Runs       int
	Ops        uint64
	Violations []string
}

// Ok reports whether every schedule passed every check.
func (r Report) Ok() bool { return len(r.Violations) == 0 }

func (r Report) String() string {
	return fmt.Sprintf("explore: %d runs, %d ops, %d violations", r.Runs, r.Ops, len(r.Violations))
}

// xorshift is the explorer's deterministic PRNG.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// Explore runs the configured number of jittered schedules, checking
// per-location ordering during each run and the structural invariants at
// the end of each run.
func Explore(cfg ExploreConfig) Report {
	rep := Report{}
	for seed := 0; seed < cfg.Seeds; seed++ {
		rep.Runs++
		violations := exploreOne(cfg, uint64(seed)*0x9E3779B9+1, &rep)
		for _, v := range violations {
			rep.Violations = append(rep.Violations, fmt.Sprintf("seed %d: %s", seed, v))
		}
	}
	return rep
}

func exploreOne(cfg ExploreConfig, seed uint64, rep *Report) []string {
	params := coherence.DefaultParams(cfg.Width * cfg.Height)
	params.Scheme = cfg.Scheme
	params.Pointers = cfg.Pointers
	mcfg := mesh.DefaultConfig(cfg.Width, cfg.Height)
	mcfg.JitterMax = cfg.JitterMax
	mcfg.JitterSeed = seed
	m := machine.New(machine.Config{
		Width: cfg.Width, Height: cfg.Height, Contexts: 1,
		Params: params, Mesh: &mcfg,
	})

	obs := contend(m, seed, cfg.Blocks, cfg.OpsPerProc)

	res, done := m.RunUntil(cfg.Deadline)
	r, w := obs.Ops()
	rep.Ops += r + w
	violations := obs.Violations()
	if !done {
		violations = append(violations, fmt.Sprintf(
			"deadlock or livelock: not finished at cycle %d (%d events)", res.Cycles, res.Events))
		return violations
	}
	violations = append(violations, EndState(m)...)
	violations = append(violations, SingleWriter(m)...)
	return violations
}

// contend binds the random contended workload the explorer and the chaos
// harness share to every processor of m and returns the observer it
// reports to. Each processor issues ops operations on blocks contended
// blocks, homed at nodes 0 and 1 to concentrate conflicts, drawn from a
// per-node xorshift stream derived from seed: a store or a
// read-modify-write a quarter of the time each, a load otherwise.
func contend(m *machine.Machine, seed uint64, blocks, ops int) *Observer {
	obs := NewObserver()
	blks := make([]directory.Addr, blocks)
	for i := range blks {
		blks[i] = coherence.BlockAt(mesh.NodeID(i%2), uint64(16+i))
	}
	for id := range m.Nodes {
		node := mesh.NodeID(id)
		rng := xorshift(seed ^ (uint64(id)+1)*0xBF58476D1CE4E5B9)
		// Written values are node-tagged, so they stay globally unique
		// without a cross-node counter and the observer can map each value
		// back to its write.
		var stamp uint64
		wl := workload.NewThread(func(t *workload.Thread) {
			workload.Loop(t, ops, func(_ int, t *workload.Thread, next func(*workload.Thread)) {
				blk := blks[rng.next()%uint64(len(blks))]
				switch rng.next() % 4 {
				case 0: // write
					stamp++
					v := uint64(id+1)<<32 | stamp
					t.Store(blk, v, func(_ uint64, t *workload.Thread) {
						obs.NoteWrite(node, blk, v)
						next(t)
					})
				case 1: // read-modify-write
					stamp++
					v := uint64(id+1)<<32 | stamp
					t.RMW(blk, func(uint64) uint64 { return v }, func(old uint64, t *workload.Thread) {
						// An RMW observes the old value and installs v.
						obs.NoteRead(node, blk, old)
						obs.NoteWrite(node, blk, v)
						next(t)
					})
				default: // read (twice as likely)
					t.Load(blk, func(v uint64, t *workload.Thread) {
						obs.NoteRead(node, blk, v)
						next(t)
					})
				}
			}, func(*workload.Thread) {})
		})
		m.SetWorkload(node, 0, wl)
	}
	return obs
}
