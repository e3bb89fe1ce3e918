package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the smoke run's child process.
func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run starts 28 child processes")
	}
	dir := t.TempDir()
	var out, errs bytes.Buffer
	start := time.Now()
	if code := benchMain([]string{"-smoke", "-workdir", dir}, &out, &errs); code != 0 {
		t.Fatalf("smoke run exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
	}
	if d := time.Since(start); d > 60*time.Second {
		t.Errorf("smoke run took %v", d)
	}
	for _, pass := range []string{"untraced", "traced"} {
		raw, err := os.ReadFile(filepath.Join(dir, pass+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Workloads []summary `json:"workloads"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s.json: %v", pass, err)
		}
		if len(doc.Workloads) != len(workloads) {
			t.Fatalf("%s.json has %d workloads, want %d", pass, len(doc.Workloads), len(workloads))
		}
		for _, s := range doc.Workloads {
			if s.Failed != 0 || s.Attempted == 0 || s.Fingerprint.Cycles == 0 {
				t.Errorf("%s %s: attempted %d, failed %d, fingerprint %v", pass, s.Workload, s.Attempted, s.Failed, s.Fingerprint)
			}
		}
	}
}

func child(cycles int64, setupNs int64, rssKB int64, runNs ...int64) childResult {
	fp := fingerprint{Cycles: 100}
	return childResult{SetupNs: setupNs, CalibNs: refCalibNs, RunNs: runNs, Cycles: cycles, Fingerprint: fp,
		Attempted: len(runNs) + 2, MaxRSSKB: rssKB}
}

func TestSummarizeUntracedPools(t *testing.T) {
	a := child(400, 3e6, 10240, 1e6, 2e6, 3e6, 4e6) // 400 cycles in 10 ms
	b := child(200, 1e6, 20480, 5e6, 5e6)           // 200 cycles in 10 ms
	c := child(200, 2e6, 30720, 6e6, 4e6)           // 200 cycles in 10 ms
	setups := []childResult{{SetupNs: 4e6, CalibNs: refCalibNs}, {SetupNs: 0.5e6, CalibNs: refCalibNs}}
	s := summarizeUntraced("w", []childResult{a, b, c}, setups)
	got := map[string]metric{}
	for _, m := range s.Metrics {
		got[m.Name] = m
	}
	check := func(name string, value float64, n int) {
		t.Helper()
		m := got[name]
		if d := m.Value - value; d > 1e-9 || d < -1e-9 || m.N != n {
			t.Errorf("%s = %v (n %d), want %v (n %d)", name, m.Value, m.N, value, n)
		}
	}
	check("simcycles_per_s", 800/0.030, 8) // pooled: Σ cycles / Σ time, not a mean of rates
	check("run_ms_p50", 4, 8)              // median of the 8 pooled runs 1,2,3,4,4,5,5,6
	check("run_ms_p90", 5.3, 8)
	check("setup_s", 0.002, 5) // median over all children, set-up-only ones too
	check("peak_rss_mb", 20, 3)
	if m := got["simcycles_per_s"]; m.Q1 != 20000 || m.Q3 != 40000*0.5+20000*0.5 {
		t.Errorf("simcycles_per_s quartiles over rounds = %v, %v", m.Q1, m.Q3)
	}
	if s.Attempted != 14 || s.Failed != 0 {
		t.Errorf("attempted %d failed %d, want 14 and 0", s.Attempted, s.Failed)
	}

	// A child on a host that ran the calibration twice as slowly counts
	// its times at half: the same pooled metrics as above.
	slow := child(200, 4e6, 30720, 12e6, 8e6)
	slow.CalibNs = 2 * refCalibNs
	s = summarizeUntraced("w", []childResult{a, b, slow}, nil)
	got = map[string]metric{}
	for _, m := range s.Metrics {
		got[m.Name] = m
	}
	check("simcycles_per_s", 800/0.030, 8)
	check("run_ms_p50", 4, 8)
	check("setup_s", 0.002, 3)

	c.Fingerprint.Cycles = 101
	s = summarizeUntraced("w", []childResult{a, b, c}, nil)
	if s.Failed != c.Attempted || len(s.Errors) != 1 {
		t.Errorf("a child with another fingerprint: failed %d, errors %q", s.Failed, s.Errors)
	}
}

func TestPairMetricsShares(t *testing.T) {
	u := child(300, 1e6, 1024, 1e6, 1e6)
	tr := child(300, 1e6, 1024, 2e6, 2e6)
	ms := time.Millisecond
	fold := map[string]time.Duration{"sim": 30 * ms, "bench": 9 * ms, unattributed: ms, calibration: 60 * ms}
	m := pairMetrics(u, tr, fold)
	sum := m["bench.unattributed_share"]
	for _, l := range layerNames {
		sum += m[l+".self_share"]
	}
	if m["sim.self_share"] != 0.75 || sum < 0.999999 || sum > 1.000001 {
		t.Errorf("sim share %v, shares sum to %v; want 0.75 and 1 with calibration left out", m["sim.self_share"], sum)
	}
	if got := m["bench.trace_overhead_pct"]; got != 100 {
		t.Errorf("trace overhead %v%%, want 100%% (traced runs took twice as long)", got)
	}
	if got := m["sim.self_ns_per_simcycle"]; got != float64(30*ms)/300 {
		t.Errorf("sim ns per simcycle %v", got)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{20000, 99.9, true}, {2000, 99, true}, {334, 97, true}, {200, 95, true},
		{100, 90, true}, {99, 75, true}, {20, 50, true}, {19, 0, false},
	}
	for _, c := range cases {
		if got, ok := tailPercentile(c.n, 10); got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d, 10) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "weather-p64", "--trace", "1", "--seconds", "5", "-trace", "0", "-trace"})
	want := []string{"--workload", "weather-p64", "-trace=1", "--seconds", "5", "-trace=0", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}

// TestResultLine checks the one-line JSON result against BENCHMARK.json:
// exactly the keys correct, attempted, failed and metrics, and every
// end-to-end (untraced) or per-layer (traced) metric with its unit.
func TestResultLine(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %q do not match the program's", names)
			break
		}
	}

	cs := []childResult{child(300, 1e6, 1024, 1e6, 2e6, 3e6)}
	traced := child(300, 1e6, 1024, 2e6, 2e6, 2e6)
	traced.Layers = metricValues{"mesh.packets_per_run": 10}
	fold := map[string]time.Duration{"sim": time.Millisecond, unattributed: time.Microsecond}
	for _, c := range []struct {
		s    summary
		defs []struct{ Name, Unit, Better string }
		mine []metricDef
	}{
		{summarizeUntraced("w", cs, nil), cfg.EndToEnd, endToEnd},
		{summarizeTraced("w", cs, []childResult{traced}, []map[string]time.Duration{fold}), cfg.PerLayer, perLayer()},
	} {
		var listed []metricDef
		for _, d := range c.defs {
			listed = append(listed, metricDef{d.Name, d.Unit, d.Better})
		}
		if !sameDefs(listed, c.mine) {
			t.Errorf("BENCHMARK.json lists %v, the program defines %v", listed, c.mine)
		}

		line, err := resultLine(c.s)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(line, &top); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range top {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Errorf("result keys = %v", keys)
		}
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(c.defs) {
			t.Errorf("result %s", line)
		}
		for _, d := range c.defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("metric %s missing or with unit %q in %s", d.Name, m.Unit, line)
			}
		}
	}
}

func sameDefs(a, b []metricDef) bool {
	key := func(ds []metricDef) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.name+" "+d.unit+" "+d.better)
		}
		sort.Strings(out)
		return out
	}
	return reflect.DeepEqual(key(a), key(b))
}
