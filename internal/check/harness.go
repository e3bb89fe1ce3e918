package check

import (
	"fmt"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/machine"
	"limitless/internal/mesh"
	"limitless/internal/sim"
	"limitless/internal/workload"
)

// Config parameterizes the checking harness: a random contended workload
// run under a seeded fault plan, once per seed. Every fault class is
// survivable by design — delay, duplication, stall and trap slowdown only
// add latency, and drop/corrupt losses are recovered by the mesh's
// reliable transport (retransmission only ever re-delivers later) — so
// every run must finish, satisfy the per-location ordering observer and
// the end-state invariants, and record zero protocol violations; anything
// else is a protocol or hardening bug. Explore and Chaos are the two
// presets.
type Config struct {
	// Params picks the protocol under test: scheme, pointers and timing.
	Params coherence.Params
	// Width, Height give the machine shape.
	Width, Height int
	// Blocks is the number of contended blocks (homed at nodes 0 and 1).
	Blocks int
	// OpsPerProc is the number of random operations each processor issues.
	OpsPerProc int
	// Seeds is how many schedules to run; run i seeds the fault plan and
	// the workload with a value derived from i.
	Seeds int
	// Faults is the fault mix (Seed is overridden per run).
	Faults fault.Config
	// Watchdog, when positive, is the per-run no-progress budget in cycles.
	Watchdog sim.Time
	// Deadline bounds each run; exceeding it is reported as a livelock.
	Deadline sim.Time
}

// Explore returns the schedule-exploration preset: a 2x2 machine whose
// every non-local packet is delayed by 1–40 cycles, perturbing the order
// of messages on different links (each link stays FIFO), with the paper's
// fixed BUSY backoff.
func Explore(scheme coherence.Scheme, pointers int) Config {
	params := coherence.DefaultParams(4)
	params.Scheme = scheme
	params.Pointers = pointers
	// A fault plan makes machine.New escalate the backoff unless a cap is
	// set; capping it at the fixed backoff keeps the paper's model.
	params.Timing.RetryBackoffMax = coherence.RetryBackoff
	return Config{
		Params:     params,
		Width:      2,
		Height:     2,
		Blocks:     3,
		OpsPerProc: 30,
		Seeds:      25,
		Faults:     fault.Config{DelayRate: 1, DelayMax: 40},
		Deadline:   2_000_000,
	}
}

// Chaos returns the fault-injection preset: a 16-node machine with every
// fault class enabled and a watchdog.
func Chaos(scheme coherence.Scheme, pointers int) Config {
	params := coherence.DefaultParams(16)
	params.Scheme = scheme
	params.Pointers = pointers
	return Config{
		Params:     params,
		Width:      4,
		Height:     4,
		Blocks:     4,
		OpsPerProc: 25,
		Seeds:      6,
		Faults: fault.Config{
			DelayRate:   0.05,
			DupRate:     0.02,
			StallRate:   0.10,
			TrapRate:    0.10,
			DropRate:    0.02,
			CorruptRate: 0.01,
		},
		Watchdog: 200_000,
		Deadline: 5_000_000,
	}
}

// Report summarizes a harness run.
type Report struct {
	Runs       int
	Ops        uint64
	Violations []string
}

// Ok reports whether every schedule passed every check.
func (r Report) Ok() bool { return len(r.Violations) == 0 }

func (r Report) String() string {
	return fmt.Sprintf("check: %d runs, %d ops, %d violations", r.Runs, r.Ops, len(r.Violations))
}

// xorshift is the harness's deterministic PRNG.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// Run runs the configured number of schedules, checking per-location
// ordering during each run, and at its end that it finished without a
// watchdog halt, the structural invariants and that the violation
// recorder stayed empty.
func Run(cfg Config) Report {
	rep := Report{}
	for seed := 0; seed < cfg.Seeds; seed++ {
		rep.Runs++
		violations := runOne(cfg, uint64(seed)*0x9E3779B97F4A7C15+1, &rep)
		for _, v := range violations {
			rep.Violations = append(rep.Violations, fmt.Sprintf("seed %d: %s", seed, v))
		}
	}
	return rep
}

func runOne(cfg Config, seed uint64, rep *Report) []string {
	fcfg := cfg.Faults
	fcfg.Seed = seed
	m := machine.New(machine.Config{
		Width: cfg.Width, Height: cfg.Height, Contexts: 1,
		Params:   cfg.Params,
		Faults:   fault.New(fcfg),
		Watchdog: cfg.Watchdog,
	})

	obs := contend(m, seed, cfg.Blocks, cfg.OpsPerProc)

	res, done := m.RunUntil(cfg.Deadline)
	r, w := obs.Ops()
	rep.Ops += r + w
	violations := obs.Violations()
	if d := m.Diagnostic(); d != nil {
		// The injected faults are survivable by construction, so a watchdog
		// trip is itself a failure — but a structured one, with the dump.
		violations = append(violations, "halted under survivable faults: "+d.String())
		return violations
	}
	if !done {
		violations = append(violations, fmt.Sprintf(
			"deadlock or livelock: not finished at cycle %d (%d events)", res.Cycles, res.Events))
		return violations
	}
	violations = append(violations, EndState(m)...)
	violations = append(violations, SingleWriter(m)...)
	// A fault plan installs the recorder, which turns a protocol-impossible
	// message into a record instead of a panic; duplicates in particular
	// must be suppressed before they reach a dispatch path.
	if res.Violations != 0 {
		for _, v := range m.Recorder().Violations() {
			violations = append(violations, "recorded violation under survivable faults: "+v.String())
		}
	}
	if res.Coherence.DupSuppressed == 0 && cfg.Faults.DupRate > 0 && res.Coherence.TotalSent() > 500 {
		violations = append(violations, "duplicate injection enabled but no duplicate was ever suppressed")
	}
	if res.FaultStats.Drops == 0 && cfg.Faults.DropRate > 0 && res.Coherence.TotalSent() > 500 {
		violations = append(violations, "drop injection enabled but no packet was ever dropped")
	}
	return violations
}

// contend binds the harness's random contended workload to every
// processor of m and returns the observer it reports to. Each processor
// issues ops operations on blocks contended blocks, homed at nodes 0 and 1
// to concentrate conflicts, drawn from a per-node xorshift stream derived
// from seed: a store or a read-modify-write a quarter of the time each, a
// load otherwise.
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
