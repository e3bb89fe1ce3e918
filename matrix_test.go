package limitless_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	limitless "limitless"
)

var updateMatrix = flag.Bool("update-matrix", false, "rewrite testdata/config_matrix.golden from this build's Results")

const matrixGolden = "testdata/config_matrix.golden"

// allSchemes enumerates the six directory organizations by their public
// names, in registry order.
func allSchemes(t testing.TB) []limitless.Scheme {
	var out []limitless.Scheme
	for _, info := range limitless.Schemes() {
		out = append(out, info.Scheme)
	}
	if len(out) != 6 {
		t.Fatalf("expected 6 registered schemes, have %d", len(out))
	}
	return out
}

// matrixFaults are the core matrix's fault settings: none, loss alone,
// the benchmark's lossy mix (every class, loss armed) and the classes that
// only add latency.
var matrixFaults = []struct{ name, spec string }{
	{"none", ""},
	{"loss", "42:drop=0.02,corrupt=0.01"},
	{"lossy-mix", "42:delay=0.05,dup=0.02,stall=0.1,trap=0.1,drop=0.02,corrupt=0.01"},
	{"delay-dup-stall", "42:delay=0.05,dup=0.02,stall=0.1"},
}

// matrixWorkloads are alewife's seven built-in workloads with its default
// parameters; locks and prodcons bind their Section 6 handler in cfg.
var matrixWorkloads = []struct {
	name  string
	build func(procs int, cfg *limitless.Config) limitless.Workload
}{
	{"weather", func(p int, _ *limitless.Config) limitless.Workload { return limitless.Weather(p) }},
	{"weather-opt", func(p int, _ *limitless.Config) limitless.Workload { return limitless.WeatherOptimized(p) }},
	{"multigrid", func(p int, _ *limitless.Config) limitless.Workload { return limitless.Multigrid(p) }},
	{"synthetic", func(p int, _ *limitless.Config) limitless.Workload { return limitless.Synthetic(p, 8) }},
	{"migratory", func(p int, _ *limitless.Config) limitless.Workload { return limitless.Migratory(p, 2) }},
	{"locks", func(p int, cfg *limitless.Config) limitless.Workload {
		cfg.FIFOLocks = []limitless.Addr{limitless.LockAddr()}
		return limitless.LockContention(p, 4)
	}},
	{"prodcons", func(p int, cfg *limitless.Config) limitless.Workload {
		cfg.UpdateMode = []limitless.Addr{limitless.ProducerConsumerAddr()}
		return limitless.ProducerConsumer(p, 4)
	}},
}

type matrixCase struct {
	name string
	cfg  limitless.Config
	wl   limitless.Workload
}

// matrixCases is the configuration matrix: P=16 and P=64 × six schemes ×
// seven workloads × four fault settings, then the extras the core does not
// reach — two hardware contexts, a link whose retransmit budget runs out,
// P=256, the coherence checker and the watchdog.
func matrixCases(t *testing.T) []matrixCase {
	var out []matrixCase
	for _, procs := range []int{16, 64} {
		for _, scheme := range allSchemes(t) {
			for _, w := range matrixWorkloads {
				for _, f := range matrixFaults {
					cfg := limitless.Config{Procs: procs, Scheme: scheme, Pointers: 4, TrapService: 50, Faults: f.spec}
					wl := w.build(procs, &cfg)
					out = append(out, matrixCase{fmt.Sprintf("P=%d %s %s faults=%s", procs, scheme, w.name, f.name), cfg, wl})
				}
			}
		}
	}
	plainAndLossy := []struct{ name, spec string }{matrixFaults[0], matrixFaults[2]}
	for _, procs := range []int{16, 64} {
		for _, f := range plainAndLossy {
			cfg := limitless.Config{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50,
				Contexts: 2, Faults: f.spec}
			out = append(out, matrixCase{fmt.Sprintf("P=%d limitless weather contexts=2 faults=%s", procs, f.name), cfg, limitless.Weather(procs)})
		}
	}
	for _, scheme := range allSchemes(t) {
		cfg := limitless.Config{Procs: 16, Scheme: scheme, Pointers: 4, TrapService: 50,
			Faults: "1:drop=1,rto=16,rmax=3", WatchdogCycles: 500_000, MaxCycles: 10_000_000}
		out = append(out, matrixCase{fmt.Sprintf("P=16 %s weather stuck-link", scheme), cfg, limitless.Weather(16)})
	}
	for _, f := range plainAndLossy {
		cfg := limitless.Config{Procs: 256, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50, Faults: f.spec}
		out = append(out, matrixCase{fmt.Sprintf("P=256 limitless weather faults=%s", f.name), cfg, limitless.Weather(256)})
	}
	for _, scheme := range allSchemes(t) {
		cfg := limitless.Config{Procs: 16, Scheme: scheme, Pointers: 4, TrapService: 50, Verify: true}
		out = append(out, matrixCase{fmt.Sprintf("P=16 %s weather verify", scheme), cfg, limitless.Weather(16)})
		cfg.Faults = matrixFaults[2].spec
		out = append(out, matrixCase{fmt.Sprintf("P=16 %s migratory verify faults=lossy-mix", scheme), cfg, limitless.Migratory(16, 2)})
	}
	for _, f := range plainAndLossy {
		cfg := limitless.Config{Procs: 64, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50,
			Faults: f.spec, WatchdogCycles: 1_000_000}
		out = append(out, matrixCase{fmt.Sprintf("P=64 limitless weather watchdog=1000000 faults=%s", f.name), cfg, limitless.Weather(64)})
	}
	trip := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 2, TrapService: 400_000,
		WatchdogCycles: 2_000, MaxCycles: 50_000_000}
	out = append(out, matrixCase{"P=16 limitless weather ptrs=2 ts=400000 watchdog=2000", trip, limitless.Weather(16)})
	return out
}

// matrixLine renders one run: every Result field, or the error text (with
// whatever Result came back beside it).
func matrixLine(name string, res limitless.Result, err error) string {
	switch {
	case err == nil:
		return fmt.Sprintf("%s: %+v", name, res)
	case res == limitless.Result{}:
		return fmt.Sprintf("%s: error %q", name, err.Error())
	default:
		return fmt.Sprintf("%s: error %q %+v", name, err.Error(), res)
	}
}

// TestConfigMatrixGolden runs the configuration matrix in-process and
// compares every Result field, and every refusal's error text, with the
// committed golden file. A change that means to move a line regenerates
// the file with -update-matrix and says which lines moved, and why.
func TestConfigMatrixGolden(t *testing.T) {
	var got []string
	for _, c := range matrixCases(t) {
		res, err := limitless.Run(c.cfg, c.wl)
		got = append(got, matrixLine(c.name, res, err))
	}
	if *updateMatrix {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(matrixGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(matrixGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-matrix)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Errorf("golden has %d lines, the matrix %d", len(want), len(got))
	}
	bad := 0
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			if bad++; bad <= 5 {
				t.Errorf("line %d moved:\n got %s\nwant %s", i+1, got[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d lines moved in all", bad)
	}
}
