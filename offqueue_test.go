package limitless_test

import (
	"strings"
	"testing"

	limitless "limitless"
	"limitless/internal/proc"
	"limitless/internal/sim"
)

// backoff sets the backoff of every spin-wait a program returns.
type backoff struct {
	inner  proc.Workload
	cycles sim.Time
}

func (b *backoff) Next(prev uint64) (proc.Op, bool) {
	op, ok := b.inner.Next(prev)
	if op.Until != nil {
		op.Cycles = b.cycles
	}
	return op, ok
}

// runOutcome is everything a run reports: the Result and the error text.
type runOutcome struct {
	res limitless.Result
	err string
}

func runFor(cfg limitless.Config, w limitless.Workload) runOutcome {
	res, err := limitless.Run(cfg, w)
	o := runOutcome{res: res}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// TestOffQueueSpinEquivalence is the gate for off-queue spin-waits. On one
// engine a spin's cache-hit polls leave the event queue and settle when an
// event of the node wakes them (proc.Processor.Wake); its two oracles keep
// every step queued: two windowed shards, where spins never leave the
// queue, and the Next-level poll loop, whose plain loads are no spin to
// the processor. All three runs must agree in every Result field and in
// the error a cut or a halt reports. The cases put wakes where they are
// hardest: LimitLESS_1 traps reaching spinning homes every epoch, a
// 40-cycle backoff (three compute slices) on a two-context processor,
// the migratory token ring, the chaos and lossy fault mixes, and cycle
// limits that cut runs inside spins.
func TestOffQueueSpinEquivalence(t *testing.T) {
	const procs = 16
	slow := func(mk func() limitless.Workload) func() limitless.Workload {
		return func() limitless.Workload {
			return limitless.WrapPrograms(mk(), func(w proc.Workload) proc.Workload {
				return &backoff{inner: w, cycles: 40}
			})
		}
	}
	weather := func() limitless.Workload { return limitless.Weather(procs) }
	custom := func() limitless.Workload { return flagAndCounter(procs) }
	base := limitless.Config{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50}
	with := func(edit func(*limitless.Config)) limitless.Config {
		cfg := base
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  limitless.Config
		mk   func() limitless.Workload
	}{
		{"limitless1-weather", with(func(c *limitless.Config) { c.Pointers = 1 }), weather},
		{"custom-backoff40-2ctx", with(func(c *limitless.Config) { c.Contexts = 2 }), slow(custom)},
		{"migratory", base, func() limitless.Workload { return limitless.Migratory(procs, 2) }},
		{"chaos", with(func(c *limitless.Config) { c.Faults = chaosSpec }), weather},
		{"lossy", with(func(c *limitless.Config) { c.Faults = lossSpec }), weather},
		{"multigrid-backoff40", base, slow(func() limitless.Workload { return limitless.Multigrid(procs) })},
		{"cut-in-custom-spin", with(func(c *limitless.Config) { c.MaxCycles = 300 }), slow(custom)},
		{"cut-weather-3001", with(func(c *limitless.Config) { c.MaxCycles = 3001 }), weather},
		{"cut-weather-6257", with(func(c *limitless.Config) { c.MaxCycles = 6257 }), weather},
		{"cut-limitless1-4444", with(func(c *limitless.Config) { c.Pointers = 1; c.MaxCycles = 4444 }), weather},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			off := runFor(c.cfg, c.mk())
			sharded := c.cfg
			sharded.Shards, sharded.ShardWorkers = 2, 2
			queued := runFor(sharded, c.mk())
			expanded := runFor(c.cfg, limitless.WrapPrograms(c.mk(), func(w proc.Workload) proc.Workload {
				return &spinExpander{inner: w}
			}))
			if off != queued {
				t.Errorf("off-queue spins and two windowed shards disagree:\noff-queue: %+v\nsharded:   %+v", off, queued)
			}
			if off != expanded {
				t.Errorf("off-queue spins and the Next-level poll loop disagree:\noff-queue: %+v\nexpanded:  %+v", off, expanded)
			}
			if c.cfg.MaxCycles > 0 && off.err == "" {
				t.Errorf("the %d-cycle limit did not cut the run (cycles %d)", c.cfg.MaxCycles, off.res.Cycles)
			}
		})
	}
}

// TestOffQueueSpinCutLandsOnLimit: every processor spins on a flag nobody
// writes, so the queue drains early and the spins stay off it. A cycle
// limit still cuts the run where a run with every step queued stops — on
// the last poll step at or before the limit, with every step up to it
// counted — however far the limit lies past the last queued event.
func TestOffQueueSpinCutLandsOnLimit(t *testing.T) {
	flag := limitless.Block(0, 9)
	stale := limitless.Custom(16, func(_ int, pr *limitless.Prog) {
		pr.SpinUntil(flag, func(v uint64) bool { return v == 1 }, func(uint64, *limitless.Prog) {})
	})
	cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50}
	for _, limit := range []int64{300, 301, 350, 100_000} {
		cfg.MaxCycles = limit
		off := runFor(cfg, stale)
		sharded := cfg
		sharded.Shards, sharded.ShardWorkers = 2, 2
		queued := runFor(sharded, stale)
		if off != queued {
			t.Errorf("limit %d: off-queue and queued cuts disagree:\noff-queue: %+v\nsharded:   %+v", limit, off, queued)
		}
		if c := int64(off.res.Cycles); c > limit || c < limit-14 {
			t.Errorf("limit %d: cut at cycle %d, want within one poll period (14 cycles) of the limit", limit, c)
		}
	}
}

// TestStaleSpinRunError: a Custom program spinning on a flag nothing
// writes, run with no cycle limit, watchdog or fault plan, drains the
// queue with every spin off it. Run reports that deadlock as an error
// instead of panicking out of the library, and a Sweep that includes such
// a point still returns every other point's result.
func TestStaleSpinRunError(t *testing.T) {
	flag := limitless.Block(0, 9)
	stale := limitless.Custom(16, func(_ int, pr *limitless.Prog) {
		pr.SpinUntil(flag, func(v uint64) bool { return v == 1 }, func(uint64, *limitless.Prog) {})
	})
	cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50}
	isStale := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "deadlock") && strings.Contains(err.Error(), "spinning")
	}
	if _, err := limitless.Run(cfg, stale); !isStale(err) {
		t.Fatalf("Run on a stale spin returned %v, want a deadlock error naming the spin", err)
	}
	weather := cfg
	weather.Pointers = 5
	want, err := limitless.Run(weather, limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := limitless.SweepN([]limitless.Config{cfg, weather}, func(c limitless.Config) limitless.Workload {
		if c.Pointers == weather.Pointers {
			return limitless.Weather(16)
		}
		return stale
	}, 2)
	if !isStale(err) {
		t.Errorf("Sweep with a stale-spin point returned %v, want its deadlock error", err)
	}
	if res[1] != want {
		t.Errorf("Sweep's Weather point reads %+v, want %+v", res[1], want)
	}
}
