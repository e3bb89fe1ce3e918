package limitless_test

import (
	"bytes"
	"strings"
	"testing"

	limitless "limitless"
	"limitless/internal/trace"
)

func small(scheme limitless.Scheme, ptrs int) limitless.Config {
	return limitless.Config{Procs: 16, Scheme: scheme, Pointers: ptrs, TrapService: 50, Verify: true}
}

func TestRunWeatherAllSchemes(t *testing.T) {
	for _, s := range []limitless.Scheme{
		limitless.FullMap, limitless.LimitedNB, limitless.LimitLESS,
		limitless.SoftwareOnly, limitless.PrivateOnly, limitless.Chained,
	} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			res, err := limitless.Run(small(s, 2), limitless.Weather(16))
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles <= 0 || res.Messages == 0 {
				t.Fatalf("empty result: %+v", res)
			}
		})
	}
}

func TestRunRejectsMismatchedProcs(t *testing.T) {
	cfg := small(limitless.FullMap, 0)
	if _, err := limitless.Run(cfg, limitless.Weather(4)); err == nil {
		t.Fatal("mismatched processor count accepted")
	}
}

func TestRunRejectsUnknownScheme(t *testing.T) {
	cfg := limitless.Config{Procs: 4, Scheme: "nonsense"}
	if _, err := limitless.Run(cfg, limitless.Multigrid(4)); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestPrivateOnlyRefusesSoftwareHandlers checks the four Config fields
// that bind Section 6 handlers under the private-only scheme. It sends
// shared references uncached, which the FIFO-lock, update-mode and
// profiling handlers cannot serve (each used to panic inside Run), so
// build refuses those three with an error naming the scheme and the
// field; the migratory handler is never reached and its run completes.
func TestPrivateOnlyRefusesSoftwareHandlers(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   limitless.Config
		wl    limitless.Workload
	}{
		{"FIFOLocks", limitless.Config{FIFOLocks: []limitless.Addr{limitless.LockAddr()}},
			limitless.LockContention(16, 3)},
		{"UpdateMode", limitless.Config{UpdateMode: []limitless.Addr{limitless.ProducerConsumerAddr()}},
			limitless.ProducerConsumer(16, 3)},
		{"ProfileAddrs", limitless.Config{ProfileAddrs: []limitless.Addr{limitless.LockAddr()}},
			limitless.LockContention(16, 3)},
		{"Migratory", limitless.Config{Migratory: []limitless.Addr{limitless.RotatingAddr()}},
			limitless.RotatingReaders(16)},
	} {
		cfg := c.cfg
		cfg.Procs, cfg.Scheme, cfg.Verify = 16, limitless.PrivateOnly, true
		_, err := limitless.Run(cfg, c.wl)
		if c.field == "Migratory" {
			if err != nil {
				t.Errorf("private-only with Migratory: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "Config."+c.field) ||
			!strings.Contains(err.Error(), string(limitless.PrivateOnly)) {
			t.Errorf("private-only with %s: error %v, want one naming the scheme and Config.%s", c.field, err, c.field)
		}
	}
}

func TestConfigRefusesNegativeValues(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*limitless.Config)
	}{
		{"Pointers", func(c *limitless.Config) { c.Pointers = -3 }},
		{"TrapService", func(c *limitless.Config) { c.TrapService = -5 }},
		{"Contexts", func(c *limitless.Config) { c.Contexts = -1 }},
		{"HopLatency", func(c *limitless.Config) { c.HopLatency = -1 }},
		{"MaxCycles", func(c *limitless.Config) { c.MaxCycles = -1 }},
		{"WatchdogCycles", func(c *limitless.Config) { c.WatchdogCycles = -1 }},
	} {
		cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitedNB}
		c.set(&cfg)
		_, err := limitless.Run(cfg, limitless.Weather(16))
		if err == nil || !strings.Contains(err.Error(), "Config."+c.field) {
			t.Errorf("negative %s: error %v, want one naming Config.%s", c.field, err, c.field)
		}
	}
}

func TestRunInfersProcsFromWorkload(t *testing.T) {
	cfg := limitless.Config{Scheme: limitless.FullMap}
	res, err := limitless.Run(cfg, limitless.Multigrid(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	cfg := small(limitless.FullMap, 0)
	cfg.MaxCycles = 10 // far too few
	if _, err := limitless.Run(cfg, limitless.Weather(16)); err == nil {
		t.Fatal("MaxCycles did not abort")
	}
}

func TestCustomWorkload(t *testing.T) {
	flag := limitless.Block(1, 7)
	data := limitless.Block(2, 3)
	var got uint64
	wl := limitless.Custom(4, func(p int, pr *limitless.Prog) {
		switch p {
		case 0:
			pr.Store(data, 42, func(pr *limitless.Prog) {
				pr.Store(flag, 1, func(*limitless.Prog) {})
			})
		case 1:
			pr.SpinUntil(flag, func(v uint64) bool { return v == 1 }, func(_ uint64, pr *limitless.Prog) {
				pr.Load(data, func(v uint64, _ *limitless.Prog) { got = v })
			})
		default:
			pr.Compute(10, func(*limitless.Prog) {})
		}
	})
	cfg := limitless.Config{Procs: 4, Scheme: limitless.LimitLESS, Pointers: 2, Verify: true}
	if _, err := limitless.Run(cfg, wl); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("consumer read %d, want 42", got)
	}
}

func TestCustomFetchAddAndLoop(t *testing.T) {
	ctr := limitless.Block(0, 5)
	wl := limitless.Custom(4, func(p int, pr *limitless.Prog) {
		pr.Loop(3, func(_ int, pr *limitless.Prog, next func(*limitless.Prog)) {
			pr.FetchAdd(ctr, 1, func(_ uint64, pr *limitless.Prog) { next(pr) })
		}, func(*limitless.Prog) {})
	})
	cfg := limitless.Config{Procs: 4, Scheme: limitless.FullMap, Verify: true}
	if _, err := limitless.Run(cfg, wl); err != nil {
		t.Fatal(err)
	}
	// Verify the final count through a second run... instead, read back in
	// the same run via a checker program.
	final := uint64(0)
	wl2 := limitless.Custom(2, func(p int, pr *limitless.Prog) {
		if p == 0 {
			pr.FetchAdd(ctr, 0, func(old uint64, _ *limitless.Prog) { final = old })
		}
	})
	if _, err := limitless.Run(limitless.Config{Procs: 2}, wl2); err != nil {
		t.Fatal(err)
	}
	// Separate machines: the second run starts fresh, so final is 0 there.
	// The real assertion is that the first run verified cleanly.
	_ = final
}

func TestSweepParallel(t *testing.T) {
	cfgs := []limitless.Config{
		small(limitless.FullMap, 0),
		small(limitless.LimitedNB, 4),
		small(limitless.LimitLESS, 4),
	}
	results, err := limitless.Sweep(cfgs, func(limitless.Config) limitless.Workload {
		return limitless.Weather(16)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Cycles == 0 {
			t.Fatalf("result %d empty", i)
		}
	}
	// Determinism across goroutines: re-run and compare.
	again, err := limitless.Sweep(cfgs, func(limitless.Config) limitless.Workload {
		return limitless.Weather(16)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i] != again[i] {
			t.Fatalf("sweep nondeterministic at %d: %+v vs %+v", i, results[i], again[i])
		}
	}
}

// TestSweepNBounded checks that SweepN with a single worker produces the
// same order-stable results as the default pool.
func TestSweepNBounded(t *testing.T) {
	cfgs := []limitless.Config{
		{Procs: 16, Scheme: limitless.FullMap, TrapService: 50},
		{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50},
		{Procs: 16, Scheme: limitless.LimitedNB, Pointers: 4, TrapService: 50},
	}
	mk := func(cfg limitless.Config) limitless.Workload { return limitless.Weather(cfg.Procs) }
	serial, err := limitless.SweepN(cfgs, mk, 1)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := limitless.Sweep(cfgs, mk)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if serial[i] != pooled[i] {
			t.Fatalf("config %d: SweepN(1) and Sweep disagree:\nserial: %+v\npooled: %+v", i, serial[i], pooled[i])
		}
	}
}

func TestFIFOLockConfig(t *testing.T) {
	cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4,
		FIFOLocks: []limitless.Addr{limitless.LockAddr()}}
	res, err := limitless.Run(cfg, limitless.LockContention(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps == 0 {
		t.Fatal("FIFO lock handler took no traps")
	}
}

func TestUpdateModeConfig(t *testing.T) {
	cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4,
		UpdateMode: []limitless.Addr{limitless.ProducerConsumerAddr()}}
	res, err := limitless.Run(cfg, limitless.ProducerConsumer(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalidations != 0 {
		// The barrier variables may still invalidate; the shared variable
		// itself must not. A zero-invalidations assertion is too strong;
		// just require the run to have trapped (update handler active).
		if res.Traps == 0 {
			t.Fatal("update-mode run took no traps")
		}
	}
}

func TestTraceWorkloadThroughFacade(t *testing.T) {
	events := trace.Generate(trace.DefaultGen(4))
	var buf bytes.Buffer
	if err := trace.Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	wl, err := limitless.FromTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Procs() != 4 {
		t.Fatalf("trace workload procs = %d", wl.Procs())
	}
	res, err := limitless.Run(limitless.Config{Procs: 4, Verify: true}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestMigratoryWorkload(t *testing.T) {
	res, err := limitless.Run(small(limitless.LimitLESS, 4), limitless.Migratory(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestResultFieldsPopulated(t *testing.T) {
	res, err := limitless.Run(small(limitless.LimitLESS, 2), limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgRemoteLatency <= 0 {
		t.Error("AvgRemoteLatency not measured")
	}
	if res.HitRate <= 0 || res.HitRate > 1 {
		t.Errorf("HitRate = %v", res.HitRate)
	}
	if res.Traps == 0 || res.SoftwareFraction <= 0 {
		t.Errorf("software activity missing: traps=%d m=%v", res.Traps, res.SoftwareFraction)
	}
	if res.NetworkAvgLatency <= 0 {
		t.Error("network latency not measured")
	}
}

func TestNonSquareProcs(t *testing.T) {
	res, err := limitless.Run(limitless.Config{Procs: 8, Scheme: limitless.FullMap}, limitless.Multigrid(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestTopologyKnobs(t *testing.T) {
	for _, topo := range []string{"mesh", "circuit", "omega", "ideal"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4,
				Topology: topo, Verify: true}
			res, err := limitless.Run(cfg, limitless.Multigrid(16))
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles == 0 {
				t.Fatal("no cycles")
			}
		})
	}
	if _, err := limitless.Run(limitless.Config{Procs: 16, Topology: "torus"},
		limitless.Multigrid(16)); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestHopLatencyKnobRaisesTh(t *testing.T) {
	fast, err := limitless.Run(limitless.Config{Procs: 16, Scheme: limitless.FullMap},
		limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := limitless.Run(limitless.Config{Procs: 16, Scheme: limitless.FullMap, HopLatency: 8},
		limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	if slow.AvgRemoteLatency <= fast.AvgRemoteLatency {
		t.Fatalf("T_h did not rise with hop latency: %.1f vs %.1f",
			slow.AvgRemoteLatency, fast.AvgRemoteLatency)
	}
}

func TestModifyGrantKnobSavesFlits(t *testing.T) {
	base := limitless.Config{Procs: 16, Scheme: limitless.FullMap, Verify: true}
	plain, err := limitless.Run(base, limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	mg := base
	mg.ModifyGrant = true
	granted, err := limitless.Run(mg, limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	if granted.NetworkFlits >= plain.NetworkFlits {
		t.Fatalf("MODG saved no flits: %d vs %d", granted.NetworkFlits, plain.NetworkFlits)
	}
	if granted.Messages != plain.Messages {
		t.Fatalf("MODG changed message count: %d vs %d", granted.Messages, plain.Messages)
	}
}

func TestMigratoryFIFOEvictionConfig(t *testing.T) {
	cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4,
		Migratory: []limitless.Addr{limitless.RotatingAddr()}, Verify: true}
	res, err := limitless.Run(cfg, limitless.RotatingReaders(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.SoftwareVectorsPeak != 0 {
		t.Fatalf("FIFO eviction allocated %d software vectors, want 0", res.SoftwareVectorsPeak)
	}
	if res.Traps == 0 {
		t.Fatal("FIFO-evict handler took no traps")
	}

	plain := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4, Verify: true}
	base, err := limitless.Run(plain, limitless.RotatingReaders(16))
	if err != nil {
		t.Fatal(err)
	}
	if base.SoftwareVectorsPeak == 0 {
		t.Fatal("default handler never extended the directory")
	}
}

func TestFFTWorkloadFacade(t *testing.T) {
	res, err := limitless.Run(limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4, Verify: true},
		limitless.FFT(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps != 0 {
		t.Fatalf("FFT with 4 pointers trapped %d times", res.Traps)
	}
}

func TestUtilizationAndMemoryFields(t *testing.T) {
	res, err := limitless.Run(small(limitless.LimitLESS, 4), limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcessorUtilization <= 0 || res.ProcessorUtilization > 1 {
		t.Errorf("utilization = %v", res.ProcessorUtilization)
	}
	if res.DirectoryBitsPerEntry <= 0 {
		t.Errorf("directory bits/entry = %d", res.DirectoryBitsPerEntry)
	}
	// The storage crossover favours LimitLESS at the paper's 64-node
	// scale (at 16 nodes a full map is genuinely cheaper).
	full64, err := limitless.Run(limitless.Config{Procs: 64, Scheme: limitless.FullMap}, limitless.Weather(64))
	if err != nil {
		t.Fatal(err)
	}
	ll64, err := limitless.Run(limitless.Config{Procs: 64, Scheme: limitless.LimitLESS, Pointers: 4}, limitless.Weather(64))
	if err != nil {
		t.Fatal(err)
	}
	if full64.DirectoryBitsPerEntry <= ll64.DirectoryBitsPerEntry {
		t.Errorf("at 64 nodes full-map bits/entry (%d) not above LimitLESS (%d)",
			full64.DirectoryBitsPerEntry, ll64.DirectoryBitsPerEntry)
	}
}
