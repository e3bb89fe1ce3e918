package main

import (
	"fmt"

	"limitless"
	"limitless/internal/coherence"
	"limitless/internal/fault"
	"limitless/internal/machine"
	"limitless/internal/proc"
	"limitless/internal/sim"
	"limitless/internal/workload"
)

// spec describes one benchmark workload. Every workload is a closed loop
// with one client: the next limitless.Run starts when the previous one
// returns, and each run starts with empty simulated caches.
type spec struct {
	name      string
	procs     int
	multigrid bool // Multigrid instead of Weather
	shards    int  // windowed sharded engine with one worker; 0 = sequential
	lossy     bool // seeded fault plan with the reliable transport armed
	runs      int  // timed runs per child process (one round)
}

// lossyMix is the fault mix of the lossy workload; the seed comes from -seed.
const lossyMix = "delay=0.05,dup=0.02,stall=0.1,trap=0.1,drop=0.02,corrupt=0.01"

// The four workloads each stress layers the others leave idle (README.md
// gives the reasons in full). The runs per round give each child about 3 s
// of timed work on a 2-core x86 host, so the children of a round take
// similar time.
var workloads = []spec{
	// The paper's Fig 8-10 machine on the sequential engine: a read-shared
	// hot spot overflows the 4 pointers; generator, pipeline and engine
	// carry most of the host time.
	{name: "weather-p64", procs: 64, runs: 200},
	// The paper's Fig 7 workload: write-sharing with invalidations and no
	// traps, so coherence, mesh and allocation carry more of the cost.
	{name: "multigrid-p64", procs: 64, multigrid: true, runs: 100},
	// The only workload on the windowed sharded engine.
	{name: "weather-p256-shards16", procs: 256, shards: 16, runs: 30},
	// The only workload with the fault plan and reliable transport armed.
	{name: "weather-p64-lossy", procs: 64, lossy: true, runs: 150},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (w spec) faults(seed uint64) string {
	if !w.lossy {
		return ""
	}
	return fmt.Sprintf("%d:%s", seed, lossyMix)
}

// config is the public configuration of one run. It sets only Procs,
// Scheme, Pointers, TrapService, Shards, ShardWorkers and Faults.
func (w spec) config(seed uint64) limitless.Config {
	cfg := limitless.Config{Procs: w.procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50,
		Shards: w.shards, Faults: w.faults(seed)}
	if w.shards > 0 {
		cfg.ShardWorkers = 1
	}
	return cfg
}

func (w spec) workload() limitless.Workload {
	if w.multigrid {
		return limitless.Multigrid(w.procs)
	}
	return limitless.Weather(w.procs)
}

// programs builds the same per-processor programs workload() wraps, for
// the traced pass, which assembles the machine itself.
func (w spec) programs() []proc.Workload {
	if w.multigrid {
		return workload.Multigrid(workload.DefaultMultigrid(w.procs))
	}
	return workload.Weather(workload.DefaultWeather(w.procs))
}

// machineConfig is the internal configuration limitless.Run builds from
// config(seed). The traced pass checks that both give the same fingerprint.
func (w spec) machineConfig(seed uint64) (machine.Config, error) {
	side := 1
	for side*side < w.procs {
		side++
	}
	if side*side != w.procs {
		return machine.Config{}, fmt.Errorf("%s: %d processors is not a square mesh", w.name, w.procs)
	}
	params := coherence.DefaultParams(w.procs)
	params.Scheme = coherence.LimitLESS
	params.Pointers = 4
	params.Timing.TrapService = sim.Time(50)
	mc := machine.Config{Width: side, Height: side, Contexts: 1, Params: params, Shards: w.shards}
	if w.shards > 0 {
		mc.ShardWorkers = 1
	}
	if w.lossy {
		fc, err := fault.Parse(w.faults(seed))
		if err != nil {
			return machine.Config{}, err
		}
		mc.Faults = fault.New(fc)
	}
	return mc, nil
}

// fingerprint identifies a run's simulated behaviour. It must be identical
// across every run of a workload, in both passes.
type fingerprint struct {
	Cycles       int64  `json:"cycles"`
	Events       uint64 `json:"events"`
	Messages     uint64 `json:"messages"`
	Traps        uint64 `json:"traps"`
	RemoteMisses uint64 `json:"remote_misses"`
	NetworkFlits uint64 `json:"network_flits"`
	Violations   uint64 `json:"violations"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cycles=%d events=%d messages=%d traps=%d remote_misses=%d flits=%d violations=%d",
		f.Cycles, f.Events, f.Messages, f.Traps, f.RemoteMisses, f.NetworkFlits, f.Violations)
}

func resultFingerprint(r limitless.Result) fingerprint {
	return fingerprint{Cycles: r.Cycles, Events: r.Events, Messages: r.Messages, Traps: r.Traps,
		RemoteMisses: r.RemoteMisses, NetworkFlits: r.NetworkFlits, Violations: r.Violations}
}

func machineFingerprint(r machine.Result) fingerprint {
	return fingerprint{Cycles: int64(r.Cycles), Events: r.Events, Messages: r.Coherence.TotalSent(),
		Traps: r.Coherence.Traps, RemoteMisses: r.Misses.RemoteMisses, NetworkFlits: r.Network.Flits,
		Violations: r.Violations}
}
