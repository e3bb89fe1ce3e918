package check

import (
	"fmt"

	"limitless/internal/coherence"
	"limitless/internal/fault"
	"limitless/internal/machine"
	"limitless/internal/sim"
)

// ChaosConfig parameterizes the fault-injection harness: the schedule
// explorer's random contended workload run under a fault plan and a
// watchdog. Every injected fault class is survivable by design — delay,
// duplication, stall, and trap slowdown only add latency, and drop/corrupt
// losses are recovered by the mesh's reliable transport (retransmission
// only ever re-delivers later) — so a chaos run must finish, satisfy
// sequential-consistency observation and end-state invariants, and record
// zero protocol violations — anything else means the hardening failed.
type ChaosConfig struct {
	// Scheme and Pointers pick the protocol under test.
	Scheme   coherence.Scheme
	Pointers int
	// Width, Height give the machine shape.
	Width, Height int
	// Blocks is the number of contended blocks (homed at nodes 0 and 1).
	Blocks int
	// OpsPerProc is the number of random operations each processor issues.
	OpsPerProc int
	// Seeds is how many fault schedules to explore; run i uses a fault
	// seed derived from i.
	Seeds int
	// Faults is the fault mix (Seed is overridden per run).
	Faults fault.Config
	// Watchdog is the per-run no-progress budget in cycles.
	Watchdog sim.Time
	// Deadline bounds each run; exceeding it is reported as a livelock.
	Deadline sim.Time
}

// DefaultChaos returns a chaos configuration for a 16-node machine with
// every fault class enabled.
func DefaultChaos(scheme coherence.Scheme, pointers int) ChaosConfig {
	return ChaosConfig{
		Scheme:     scheme,
		Pointers:   pointers,
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

// Chaos runs the configured number of fault schedules, checking
// per-location ordering during each run, structural invariants at the end,
// and that neither the watchdog nor the violation recorder fired.
func Chaos(cfg ChaosConfig) Report {
	rep := Report{}
	for seed := 0; seed < cfg.Seeds; seed++ {
		rep.Runs++
		violations := chaosOne(cfg, uint64(seed)*0x9E3779B97F4A7C15+1, &rep)
		for _, v := range violations {
			rep.Violations = append(rep.Violations, fmt.Sprintf("fault seed %d: %s", seed, v))
		}
	}
	return rep
}

func chaosOne(cfg ChaosConfig, seed uint64, rep *Report) []string {
	params := coherence.DefaultParams(cfg.Width * cfg.Height)
	params.Scheme = cfg.Scheme
	params.Pointers = cfg.Pointers
	fcfg := cfg.Faults
	fcfg.Seed = seed
	m := machine.New(machine.Config{
		Width: cfg.Width, Height: cfg.Height, Contexts: 1,
		Params:   params,
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
	// Duplicates must be suppressed before they reach a dispatch path; a
	// recorded violation means one got through.
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
