// Package experiments defines every reproduced experiment — the paper's
// figures and tables plus this repository's ablations — as functions
// returning structured data. cmd/figures renders them; the package's own
// tests assert the shapes the paper reports (who wins, in what order, by
// roughly what factor), so a regression that flattens a figure fails CI
// rather than silently producing a wrong chart.
package experiments

import (
	"fmt"

	limitless "limitless"
	"limitless/internal/coherence"
	"limitless/internal/machine"
	"limitless/internal/mesh"
	"limitless/internal/protocol"
	"limitless/internal/workload"
)

// bitsPerEntry maps the facade scheme names onto the machine package's
// hardware cost model through the protocol registry.
func bitsPerEntry(s limitless.Scheme, nodes, pointers int) int {
	info, ok := protocol.ByName(string(s))
	if !ok {
		return 0
	}
	return machine.BitsPerEntry(info.ID, nodes, pointers)
}

// Bar is one bar of an execution-time chart.
type Bar struct {
	Name   string
	Result limitless.Result
}

// Cycles is shorthand for the bar's execution time.
func (b Bar) Cycles() int64 { return b.Result.Cycles }

func run(cfg limitless.Config, wl limitless.Workload) (limitless.Result, error) {
	return limitless.Run(cfg, wl)
}

// runBars executes one workload constructor under several configurations
// concurrently.
func runBars(names []string, cfgs []limitless.Config, mk func(cfg limitless.Config) limitless.Workload) ([]Bar, error) {
	results, err := limitless.Sweep(cfgs, mk)
	if err != nil {
		return nil, err
	}
	bars := make([]Bar, len(names))
	for i := range names {
		bars[i] = Bar{Name: names[i], Result: results[i]}
	}
	return bars, nil
}

// Fig7 is the static multigrid comparison (all schemes comparable).
func Fig7(procs int) ([]Bar, error) {
	return runBars(
		[]string{"Dir4NB", "LimitLESS4 Ts=100", "LimitLESS4 Ts=50", "Full-Map"},
		[]limitless.Config{
			{Procs: procs, Scheme: limitless.LimitedNB, Pointers: 4},
			{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 100},
			{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50},
			{Procs: procs, Scheme: limitless.FullMap},
		},
		func(cfg limitless.Config) limitless.Workload { return limitless.Multigrid(procs) })
}

// Fig8 is unoptimized Weather under limited and full-map directories; the
// second slice is the optimized control.
func Fig8(procs int) (unopt, opt []Bar, err error) {
	unopt, err = runBars(
		[]string{"Dir1NB", "Dir2NB", "Dir4NB", "Full-Map"},
		[]limitless.Config{
			{Procs: procs, Scheme: limitless.LimitedNB, Pointers: 1},
			{Procs: procs, Scheme: limitless.LimitedNB, Pointers: 2},
			{Procs: procs, Scheme: limitless.LimitedNB, Pointers: 4},
			{Procs: procs, Scheme: limitless.FullMap},
		},
		func(cfg limitless.Config) limitless.Workload { return limitless.Weather(procs) })
	if err != nil {
		return nil, nil, err
	}
	opt, err = runBars(
		[]string{"Dir4NB (optimized)", "Full-Map (optimized)"},
		[]limitless.Config{
			{Procs: procs, Scheme: limitless.LimitedNB, Pointers: 4},
			{Procs: procs, Scheme: limitless.FullMap},
		},
		func(cfg limitless.Config) limitless.Workload { return limitless.WeatherOptimized(procs) })
	return unopt, opt, err
}

// Fig9 is Weather under LimitLESS4 across the T_s sweep.
func Fig9(procs int) ([]Bar, error) {
	return runBars(
		[]string{"Dir4NB", "LimitLESS4 Ts=150", "LimitLESS4 Ts=100", "LimitLESS4 Ts=50", "LimitLESS4 Ts=25", "Full-Map"},
		[]limitless.Config{
			{Procs: procs, Scheme: limitless.LimitedNB, Pointers: 4},
			{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 150},
			{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 100},
			{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50},
			{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 25},
			{Procs: procs, Scheme: limitless.FullMap},
		},
		func(cfg limitless.Config) limitless.Workload { return limitless.Weather(procs) })
}

// Fig10 is Weather under LimitLESS with 1, 2 and 4 pointers at T_s = 50.
func Fig10(procs int) ([]Bar, error) {
	return runBars(
		[]string{"Dir4NB", "LimitLESS1", "LimitLESS2", "LimitLESS4", "Full-Map"},
		[]limitless.Config{
			{Procs: procs, Scheme: limitless.LimitedNB, Pointers: 4},
			{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 1, TrapService: 50},
			{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 2, TrapService: 50},
			{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50},
			{Procs: procs, Scheme: limitless.FullMap},
		},
		func(cfg limitless.Config) limitless.Workload { return limitless.Weather(procs) })
}

// ModelRow is one row of the Section 3.1 analytic-model validation.
type ModelRow struct {
	WorkerSet int
	Ts        int64
	M         float64 // measured software fraction
	Th        float64 // full-map average remote latency
	Predicted float64 // Th + m*Ts
	Measured  float64 // LimitLESS average remote latency
}

// ErrPct returns the prediction error as a percentage of the measurement.
func (r ModelRow) ErrPct() float64 {
	if r.Measured == 0 {
		return 0
	}
	return (r.Measured - r.Predicted) / r.Measured * 100
}

// Model validates T_eff = T_h + m*T_s across worker-set and T_s sweeps.
func Model(procs int) ([]ModelRow, error) {
	var rows []ModelRow
	for _, ws := range []int{2, 6, 12} {
		full, err := run(limitless.Config{Procs: procs, Scheme: limitless.FullMap}, limitless.Synthetic(procs, ws))
		if err != nil {
			return nil, err
		}
		for _, ts := range []int64{50, 100} {
			ll, err := run(limitless.Config{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: ts},
				limitless.Synthetic(procs, ws))
			if err != nil {
				return nil, err
			}
			rows = append(rows, ModelRow{
				WorkerSet: ws,
				Ts:        ts,
				M:         ll.SoftwareFraction,
				Th:        full.AvgRemoteLatency,
				Predicted: full.AvgRemoteLatency + ll.SoftwareFraction*float64(ts),
				Measured:  ll.AvgRemoteLatency,
			})
		}
	}
	return rows, nil
}

// ScalingRow is one point of the T_h ≫ T_s scalability experiment.
type ScalingRow struct {
	HopLatency int64
	Th         float64
	FullMap    limitless.Result
	LimitLESS  limitless.Result
}

// Overhead returns LimitLESS execution time relative to full-map.
func (r ScalingRow) Overhead() float64 {
	return float64(r.LimitLESS.Cycles) / float64(r.FullMap.Cycles)
}

// Scaling grows internode latency on a 64-processor machine, emulating
// physically larger machines, and reports the LimitLESS/full-map ratio.
func Scaling() ([]ScalingRow, error) {
	hops := []int64{1, 4, 8, 16}
	var cfgs []limitless.Config
	for _, hl := range hops {
		cfgs = append(cfgs,
			limitless.Config{Procs: 64, Scheme: limitless.FullMap, HopLatency: hl},
			limitless.Config{Procs: 64, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 100, HopLatency: hl})
	}
	results, err := limitless.Sweep(cfgs, func(limitless.Config) limitless.Workload {
		return limitless.Weather(64)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ScalingRow, len(hops))
	for i, hl := range hops {
		rows[i] = ScalingRow{
			HopLatency: hl,
			Th:         results[2*i].AvgRemoteLatency,
			FullMap:    results[2*i],
			LimitLESS:  results[2*i+1],
		}
	}
	return rows, nil
}

// FIFOEvictComparison runs the rotating-reader case study with and without
// the Section 6 FIFO-eviction handler.
func FIFOEvictComparison(procs int) (plain, fifo limitless.Result, err error) {
	base := limitless.Config{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4}
	plain, err = run(base, limitless.RotatingReaders(procs))
	if err != nil {
		return
	}
	withFIFO := base
	withFIFO.Migratory = []limitless.Addr{limitless.RotatingAddr()}
	fifo, err = run(withFIFO, limitless.RotatingReaders(procs))
	return
}

// MemoryRow is one line of the directory-memory-overhead comparison — the
// paper's core O(N) vs O(N²) argument (Sections 1 and 3.1).
type MemoryRow struct {
	Scheme       limitless.Scheme
	Nodes        int
	BitsPerEntry int
}

// MemoryModel tabulates per-entry directory cost across machine sizes for
// the full-map, Dir4NB and LimitLESS4 organizations.
func MemoryModel() []MemoryRow {
	var rows []MemoryRow
	for _, n := range []int{64, 256, 1024, 4096} {
		for _, sc := range []struct {
			s    limitless.Scheme
			ptrs int
		}{{limitless.FullMap, 0}, {limitless.LimitedNB, 4}, {limitless.LimitLESS, 4}} {
			rows = append(rows, MemoryRow{
				Scheme:       sc.s,
				Nodes:        n,
				BitsPerEntry: bitsPerEntry(sc.s, n, sc.ptrs),
			})
		}
	}
	return rows
}

// StorageRow is one line of the measured directory-storage comparison:
// the simulator's own bytes per directory entry under packed sharer sets
// and under the boxed pointer-set oracle.
type StorageRow struct {
	Nodes         int
	Scheme        string
	Packed, Boxed float64 // measured bytes per directory entry
}

// Reduction is the boxed footprint over the packed one.
func (r StorageRow) Reduction() float64 { return r.Boxed / r.Packed }

// Storage measures Weather's directory footprint, packed and boxed, for
// full-map and LimitLESS4 at the paper's machine size and the P=256 and
// P=1024 scale points.
func Storage() ([]StorageRow, error) {
	var rows []StorageRow
	for _, p := range []int{64, 256, 1024} {
		for _, sc := range []struct {
			name   string
			scheme limitless.Scheme
			ptrs   int
		}{{"Full-Map", limitless.FullMap, 0}, {"LimitLESS4", limitless.LimitLESS, 4}} {
			row, err := StoragePoint(p, sc.scheme, sc.ptrs)
			if err != nil {
				return nil, err
			}
			row.Scheme = sc.name
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// StoragePoint runs Weather on a machine of procs processors, built as
// limitless.Run builds it (the most square mesh, default T_s = 50), once
// with packed and once with boxed sharer sets, and reports both measured
// footprints.
func StoragePoint(procs int, scheme limitless.Scheme, pointers int) (StorageRow, error) {
	info, ok := protocol.ByName(string(scheme))
	if !ok {
		return StorageRow{}, fmt.Errorf("experiments: unknown scheme %q", scheme)
	}
	if procs < 1 {
		return StorageRow{}, fmt.Errorf("experiments: need at least 1 processor, got %d", procs)
	}
	w, h := machine.Shape(procs)
	params := coherence.DefaultParams(procs)
	params.Scheme = info.ID
	if pointers > 0 {
		params.Pointers = pointers
	}
	bytesPerEntry := func(oracles machine.Oracles) float64 {
		m := machine.New(machine.Config{Width: w, Height: h, Contexts: 1, Params: params, Oracles: oracles})
		defer m.Release()
		for i, w := range workload.Weather(workload.DefaultWeather(procs)) {
			m.SetWorkload(mesh.NodeID(i), 0, w)
		}
		m.Run()
		return m.DirectoryMemory().MeasuredBytesPerEntry
	}
	return StorageRow{Nodes: procs, Packed: bytesPerEntry(0), Boxed: bytesPerEntry(machine.OracleBoxed)}, nil
}

// ContextStudy measures block multithreading on the most square machine
// of procs processors (the shape limitless.Run builds): each node runs two
// independent remote reference streams, one after the other on one
// context, or overlapped on two hardware contexts, where their miss
// latencies overlap.
func ContextStudy(procs, contexts int) (cycles int64, switches uint64) {
	params := coherence.DefaultParams(procs)
	params.Scheme = coherence.LimitLESS
	params.Pointers = 4
	w, h := machine.Shape(procs)
	m := machine.New(machine.Config{Width: w, Height: h, Contexts: contexts, Params: params})

	stream := func(t *workload.Thread, p, lane int, then func(*workload.Thread)) {
		neighbour := mesh.NodeID((p + 1 + lane) % procs)
		workload.Loop(t, 24, func(i int, t *workload.Thread, next func(*workload.Thread)) {
			t.Load(coherence.BlockAt(neighbour, uint64(100+lane*64+i)), func(_ uint64, t *workload.Thread) { next(t) })
		}, then)
	}

	for p := 0; p < procs; p++ {
		p := p
		if contexts == 1 {
			m.SetWorkload(mesh.NodeID(p), 0, workload.NewThread(func(t *workload.Thread) {
				stream(t, p, 0, func(t *workload.Thread) { stream(t, p, 1, func(*workload.Thread) {}) })
			}))
			continue
		}
		m.SetWorkload(mesh.NodeID(p), 0, workload.NewThread(func(t *workload.Thread) {
			stream(t, p, 0, func(*workload.Thread) {})
		}))
		m.SetWorkload(mesh.NodeID(p), 1, workload.NewThread(func(t *workload.Thread) {
			stream(t, p, 1, func(*workload.Thread) {})
		}))
	}
	res := m.Run()
	return int64(res.Cycles), res.Proc.ContextSwitches
}
