package limitless_test

// The benchmark harness: one testing.B benchmark per reproduced table and
// figure (run `go test -bench=. -benchmem`). Each benchmark executes the
// exact configuration its figure reports and publishes the figure's metric
// (execution cycles, measured T_h, software fraction m) as custom benchmark
// metrics, so `go test -bench Fig9` regenerates the Figure 9 series.
// cmd/figures prints the same data as formatted tables.

import (
	"fmt"
	"testing"

	limitless "limitless"
	"limitless/internal/machine"
)

const benchProcs = 64

func runB(b *testing.B, cfg limitless.Config, mk func() limitless.Workload) {
	b.Helper()
	var last limitless.Result
	for i := 0; i < b.N; i++ {
		res, err := limitless.Run(cfg, mk())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Cycles), "cycles")
	b.ReportMetric(last.AvgRemoteLatency, "Th")
	b.ReportMetric(last.SoftwareFraction, "m")
	b.ReportMetric(float64(last.Traps), "traps")
	b.ReportMetric(float64(last.Evictions), "evictions")
}

// --- Figure 7: static multigrid, 64 processors ---

func BenchmarkFig7MultigridDir4NB(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitedNB, Pointers: 4},
		func() limitless.Workload { return limitless.Multigrid(benchProcs) })
}

func BenchmarkFig7MultigridLimitLESS4Ts100(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 100},
		func() limitless.Workload { return limitless.Multigrid(benchProcs) })
}

func BenchmarkFig7MultigridLimitLESS4Ts50(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50},
		func() limitless.Workload { return limitless.Multigrid(benchProcs) })
}

func BenchmarkFig7MultigridFullMap(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.FullMap},
		func() limitless.Workload { return limitless.Multigrid(benchProcs) })
}

// --- Figure 8: Weather under limited and full-map directories ---

func BenchmarkFig8WeatherDir1NB(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitedNB, Pointers: 1},
		func() limitless.Workload { return limitless.Weather(benchProcs) })
}

func BenchmarkFig8WeatherDir2NB(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitedNB, Pointers: 2},
		func() limitless.Workload { return limitless.Weather(benchProcs) })
}

func BenchmarkFig8WeatherDir4NB(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitedNB, Pointers: 4},
		func() limitless.Workload { return limitless.Weather(benchProcs) })
}

func BenchmarkFig8WeatherFullMap(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.FullMap},
		func() limitless.Workload { return limitless.Weather(benchProcs) })
}

func BenchmarkFig8WeatherOptimizedDir4NB(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitedNB, Pointers: 4},
		func() limitless.Workload { return limitless.WeatherOptimized(benchProcs) })
}

// --- Figure 9: Weather, LimitLESS4, T_s sweep ---

func benchFig9(b *testing.B, ts int64) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: ts},
		func() limitless.Workload { return limitless.Weather(benchProcs) })
}

func BenchmarkFig9WeatherLimitLESS4Ts25(b *testing.B)  { benchFig9(b, 25) }
func BenchmarkFig9WeatherLimitLESS4Ts50(b *testing.B)  { benchFig9(b, 50) }
func BenchmarkFig9WeatherLimitLESS4Ts100(b *testing.B) { benchFig9(b, 100) }
func BenchmarkFig9WeatherLimitLESS4Ts150(b *testing.B) { benchFig9(b, 150) }

// --- Figure 10: Weather, LimitLESS pointer sweep at T_s = 50 ---

func benchFig10(b *testing.B, ptrs int) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: ptrs, TrapService: 50},
		func() limitless.Workload { return limitless.Weather(benchProcs) })
}

func BenchmarkFig10WeatherLimitLESS1(b *testing.B) { benchFig10(b, 1) }
func BenchmarkFig10WeatherLimitLESS2(b *testing.B) { benchFig10(b, 2) }
func BenchmarkFig10WeatherLimitLESS4(b *testing.B) { benchFig10(b, 4) }

// --- Section 3.1 model validation ---

func BenchmarkModelValidation(b *testing.B) {
	for _, ws := range []int{2, 6, 12} {
		ws := ws
		b.Run(fmt.Sprintf("workerset-%d", ws), func(b *testing.B) {
			runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 100},
				func() limitless.Workload { return limitless.Synthetic(benchProcs, ws) })
		})
	}
}

// --- Ablations ---

func BenchmarkAblationChainedWeather(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.Chained, Pointers: 1},
		func() limitless.Workload { return limitless.Weather(benchProcs) })
}

func BenchmarkAblationSoftwareOnlyWeather(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.SoftwareOnly, Pointers: 1},
		func() limitless.Workload { return limitless.Weather(benchProcs) })
}

func BenchmarkAblationPrivateOnlyWeather(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.PrivateOnly},
		func() limitless.Workload { return limitless.Weather(benchProcs) })
}

func BenchmarkAblationMigratory(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4},
		func() limitless.Workload { return limitless.Migratory(benchProcs, 2) })
}

func BenchmarkAblationFIFOLock(b *testing.B) {
	cfg := limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4,
		FIFOLocks: []limitless.Addr{limitless.LockAddr()}}
	runB(b, cfg, func() limitless.Workload { return limitless.LockContention(benchProcs, 3) })
}

func BenchmarkAblationUpdateModeProducerConsumer(b *testing.B) {
	cfg := limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4,
		UpdateMode: []limitless.Addr{limitless.ProducerConsumerAddr()}}
	runB(b, cfg, func() limitless.Workload { return limitless.ProducerConsumer(benchProcs, 4) })
}

// --- Simulator throughput (engineering metric, not a paper figure) ---

func BenchmarkSimulatorThroughput(b *testing.B) {
	benchThroughput(b, 0)
}

// BenchmarkSimulatorThroughputHeap is the same run on the binary-heap
// oracle scheduler: the wheel-vs-heap gap on a whole simulation, measured
// on the identical (bit-identical, by construction) workload.
func BenchmarkSimulatorThroughputHeap(b *testing.B) {
	benchThroughput(b, machine.OracleHeap)
}

func benchThroughput(b *testing.B, mask machine.Oracles) {
	cfg := limitless.WithOracles(limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4}, mask)
	var cycles int64
	var events uint64
	var last limitless.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := limitless.Run(cfg, limitless.Weather(benchProcs))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		events += res.Events
		last = res
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	// The measured directory footprint is deterministic per configuration,
	// so the last run speaks for all of them.
	b.ReportMetric(last.DirectoryBytesPerEntry, "dirbytes/entry")
}

// BenchmarkFaultedThroughput measures the cost of fault injection with the
// reliable transport armed: the BenchmarkSimulatorThroughput run under the
// full chaos mix including drop and corrupt. The gap to the unfaulted
// baseline is the price of per-link sequencing, checksums, retransmit
// timers, and the reorder buffer on a real workload.
func BenchmarkFaultedThroughput(b *testing.B) {
	const spec = "42:delay=0.05,dup=0.02,stall=0.1,trap=0.1,drop=0.02,corrupt=0.01"
	cfg := limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4,
		Faults: spec}
	var cycles int64
	var events uint64
	var retrans uint64
	for i := 0; i < b.N; i++ {
		res, err := limitless.Run(cfg, limitless.Weather(benchProcs))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		events += res.Events
		retrans += res.FaultStats.Retransmits
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(retrans)/float64(b.N), "retransmits")
}

// BenchmarkShardedP256 is the scale point: a 256-processor (16×16 mesh)
// LimitLESS4 Weather run. The name is kept from the windowed sharded
// engine it once measured, so earlier results stay comparable; the run is
// one engine, like every run.
func BenchmarkShardedP256(b *testing.B) {
	const procs = 256
	cfg := limitless.Config{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4}
	var cycles int64
	var events uint64
	var last limitless.Result
	for i := 0; i < b.N; i++ {
		res, err := limitless.Run(cfg, limitless.Weather(procs))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		events += res.Events
		last = res
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(last.DirectoryBytesPerEntry, "dirbytes/entry")
}

// BenchmarkShardedP1024 is the machine the packed directory exists for: a
// 1024-processor (32x32 mesh) LimitLESS4 Weather run on one engine, named
// like BenchmarkShardedP256. At this size the boxed
// sharer sets cost ~200 B/entry where the packed inline representation
// stays at its 24 B header until a set spills, and the compact node walks
// touch a quarter of the cache lines — the dirbytes metric pins the
// footprint alongside the throughput.
func BenchmarkShardedP1024(b *testing.B) {
	const procs = 1024
	cfg := limitless.Config{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4}
	var cycles int64
	var events uint64
	var last limitless.Result
	for i := 0; i < b.N; i++ {
		res, err := limitless.Run(cfg, limitless.Weather(procs))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		events += res.Events
		last = res
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(last.DirectoryBytesPerEntry, "dirbytes/entry")
}

func BenchmarkAblationFFT(b *testing.B) {
	runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4},
		func() limitless.Workload { return limitless.FFT(benchProcs, 2) })
}

func BenchmarkAblationTopology(b *testing.B) {
	for _, topo := range []string{"mesh", "circuit", "omega", "ideal"} {
		topo := topo
		b.Run(topo, func(b *testing.B) {
			runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4, Topology: topo},
				func() limitless.Workload { return limitless.Weather(benchProcs) })
		})
	}
}

func BenchmarkScalingHopLatency(b *testing.B) {
	for _, hl := range []int64{1, 8, 16} {
		hl := hl
		b.Run(fmt.Sprintf("hop-%d", hl), func(b *testing.B) {
			runB(b, limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4,
				TrapService: 100, HopLatency: hl},
				func() limitless.Workload { return limitless.Weather(benchProcs) })
		})
	}
}
