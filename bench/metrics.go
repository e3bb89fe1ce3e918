package main

import (
	"fmt"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics of the untraced pass.
var endToEnd = []metricDef{
	{"simcycles_per_s", "simcycles/s", "higher"},
	{"run_ms_p50", "ms", "lower"},
	{"run_ms_p90", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerExtras are the traced pass's counts, spans and replays; every layer
// also reports <layer>.self_ns_per_simcycle and <layer>.self_share.
var layerExtras = []metricDef{
	{"sim.events_per_run", "count", "lower"},
	{"sim.pend_share", "ratio", "higher"},
	{"mesh.packets_per_run", "count", "lower"},
	{"mesh.flits_per_packet", "flits", "lower"},
	{"mesh.latency_cycles", "cycles", "lower"},
	{"mesh.self_ns_per_packet", "ns", "lower"},
	{"transport.retransmits_per_run", "count", "lower"},
	{"transport.drops_per_run", "count", "lower"},
	{"transport.corrupts_per_run", "count", "lower"},
	{"transport.dups_per_run", "count", "lower"},
	{"coherence.messages_per_run", "count", "lower"},
	{"coherence.invalidations_per_run", "count", "lower"},
	{"coherence.busies_per_run", "count", "lower"},
	{"coherence.retries_per_run", "count", "lower"},
	{"coherence.deliver.calls_per_run", "count", "lower"},
	{"coherence.deliver.ns_per_call", "ns", "lower"},
	{"directory.bytes_per_entry", "B", "lower"},
	{"directory.pointer_overflows_per_run", "count", "lower"},
	{"directory.replay_ns_per_op", "ns", "lower"},
	{"swdir.traps_per_run", "count", "lower"},
	{"swdir.software_fraction", "ratio", "lower"},
	{"swdir.handle.calls_per_run", "count", "lower"},
	{"swdir.handle.ns_per_call", "ns", "lower"},
	{"cache.hit_rate", "ratio", "higher"},
	{"cache.remote_misses_per_run", "count", "lower"},
	{"cache.remote_latency_cycles", "cycles", "lower"},
	{"cache.replay_ns_per_access", "ns", "lower"},
	{"proc.instructions_per_run", "count", "lower"},
	{"proc.utilization", "ratio", "higher"},
	{"proc.context_switches_per_run", "count", "lower"},
	{"workload.next.calls_per_run", "count", "lower"},
	{"workload.next.ns_per_call", "ns", "lower"},
	{"machine.sim_cycles", "cycles", "lower"},
	{"machine.events", "count", "lower"},
	{"runtime.allocs_per_run", "count", "lower"},
	{"runtime.alloc_bytes_per_run", "B", "lower"},
	{"runtime.gc_per_run", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.unattributed_share", "ratio", "lower"},
}

// perLayer lists every metric of the traced pass.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layerNames {
		defs = append(defs,
			metricDef{l + ".self_ns_per_simcycle", "ns/simcycle", "lower"},
			metricDef{l + ".self_share", "ratio", "lower"})
	}
	return append(defs, layerExtras...)
}

// metric is one reported value: the pooled value, the number of samples
// behind it, and the quartiles of its per-round values.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

func newMetric(def metricDef, value float64, n int, perRound []float64) metric {
	return metric{Name: def.name, Unit: def.unit, Value: value, N: n,
		Q1: quantile(perRound, 0.25), Q3: quantile(perRound, 0.75)}
}

// summary is one workload's result for one pass.
type summary struct {
	Workload    string      `json:"workload"`
	Fingerprint fingerprint `json:"fingerprint"`
	Children    int         `json:"children"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	Errors      []string    `json:"errors,omitempty"`
	// Metrics are the gated metrics of the pass, in BENCHMARK.json order.
	Metrics []metric `json:"metrics"`
	// Info are ungated rows: fail_ratio, the raw rate, the calibration
	// slice, and the highest timing percentile with at least ten runs
	// beyond it.
	Info []metric `json:"info,omitempty"`
}

// newSummary pools the children's correctness: every child must repeat
// the first child's fingerprint, or all its runs count as failed.
func newSummary(name string, cs []childResult) summary {
	s := summary{Workload: name, Children: len(cs)}
	if len(cs) > 0 {
		s.Fingerprint = cs[0].Fingerprint
	}
	for _, c := range cs {
		s.Attempted += c.Attempted
		s.Failed += c.Failed
		s.Errors = append(s.Errors, c.Errors...)
		if c.Fingerprint != s.Fingerprint {
			s.Failed += c.Attempted - c.Failed
			s.Errors = append(s.Errors, fmt.Sprintf("child fingerprint %v differs from %v", c.Fingerprint, s.Fingerprint))
		}
	}
	return s
}

// slowdown is how much slower than the reference host the child's host
// ran (see calibrate.go); dividing a host time by it normalizes the time.
func (c childResult) slowdown() float64 { return float64(c.CalibNs) / refCalibNs }

// runNs sums the child's timed runs.
func (c childResult) runNs() int64 {
	var ns int64
	for _, n := range c.RunNs {
		ns += n
	}
	return ns
}

// rate is the child's simulated cycles per normalized host second.
func (c childResult) rate() float64 {
	return ratio(float64(c.Cycles), float64(c.runNs())/c.slowdown()/1e9)
}

// summarizeUntraced pools one workload's untraced children and its
// set-up-only children. Host times are normalized per child; the raw rate
// and the calibration are kept as info.
func summarizeUntraced(name string, cs, setups []childResult) summary {
	s := newSummary(name, cs)
	var runMs, setup, rss, calib, rates, p50s, p90s []float64
	var cycles, rawNs int64
	var ns float64
	for _, c := range setups {
		setup = append(setup, float64(c.SetupNs)/c.slowdown()/1e9)
	}
	for _, c := range cs {
		k := c.slowdown()
		ms := make([]float64, len(c.RunNs))
		for i, n := range c.RunNs {
			ms[i] = float64(n) / k / 1e6
		}
		runMs = append(runMs, ms...)
		cycles += c.Cycles
		rawNs += c.runNs()
		ns += float64(c.runNs()) / k
		rates = append(rates, c.rate())
		p50s = append(p50s, median(ms))
		p90s = append(p90s, quantile(ms, 0.9))
		setup = append(setup, float64(c.SetupNs)/k/1e9)
		rss = append(rss, float64(c.MaxRSSKB)/1024)
		calib = append(calib, float64(c.CalibNs)/1e6)
	}
	s.Metrics = []metric{
		newMetric(endToEnd[0], ratio(float64(cycles), ns/1e9), len(runMs), rates),
		newMetric(endToEnd[1], median(runMs), len(runMs), p50s),
		newMetric(endToEnd[2], quantile(runMs, 0.9), len(runMs), p90s),
		newMetric(endToEnd[3], median(setup), len(setup), setup),
		newMetric(endToEnd[4], median(rss), len(rss), rss),
	}
	s.Info = []metric{
		{Name: "fail_ratio", Unit: "ratio", Value: ratio(float64(s.Failed), float64(s.Attempted)), N: s.Attempted},
		{Name: "simcycles_per_s_raw", Unit: "simcycles/s", Value: ratio(float64(cycles), float64(rawNs)/1e9), N: len(runMs)},
		newMetric(metricDef{name: "calib_slice_ms", unit: "ms"}, median(calib), len(calib), calib),
	}
	if p, ok := tailPercentile(len(runMs), 10); ok {
		s.Info = append(s.Info, metric{Name: fmt.Sprintf("run_ms_p%g", p), Unit: "ms",
			Value: quantile(runMs, p/100), N: len(runMs)})
	}
	return s
}

// pairMetrics derives every per-layer metric from one round of the traced
// pass: an untraced child u, the traced child t after it, and t's folded
// CPU profile. Host times are normalized by t's calibration.
func pairMetrics(u, t childResult, fold map[string]time.Duration) metricValues {
	m := metricValues{}
	for k, v := range t.Layers {
		m[k] = v
	}
	var total time.Duration
	for layer, d := range fold {
		if layer != calibration {
			total += d
		}
	}
	for _, l := range layerNames {
		m[l+".self_ns_per_simcycle"] = ratio(float64(fold[l]), float64(t.Cycles))
		m[l+".self_share"] = ratio(float64(fold[l]), float64(total))
	}
	m["mesh.self_ns_per_packet"] = ratio(float64(fold["mesh"]), m["mesh.packets_per_run"]*float64(len(t.RunNs)))
	runs := float64(len(u.RunNs))
	m["runtime.allocs_per_run"] = ratio(float64(u.Mallocs), runs)
	m["runtime.alloc_bytes_per_run"] = ratio(float64(u.AllocBytes), runs)
	m["runtime.gc_per_run"] = ratio(float64(u.GCs), runs)
	m["bench.trace_overhead_pct"] = 100 * (ratio(u.rate(), t.rate()) - 1)
	m["bench.unattributed_share"] = ratio(float64(fold[unattributed]), float64(total))
	for _, def := range perLayer() {
		if def.unit == "ns" || def.unit == "ns/simcycle" {
			m[def.name] /= t.slowdown()
		}
	}
	return m
}

// summarizeTraced pools one workload's traced-pass rounds: each metric is
// the median over rounds. All children, untraced and traced, must share
// one fingerprint.
func summarizeTraced(name string, untraced, traced []childResult, folds []map[string]time.Duration) summary {
	s := newSummary(name, append(append([]childResult(nil), untraced...), traced...))
	pairs := make([]metricValues, len(traced))
	for i := range traced {
		pairs[i] = pairMetrics(untraced[i], traced[i], folds[i])
	}
	for _, def := range perLayer() {
		vals := make([]float64, len(pairs))
		for i, p := range pairs {
			vals[i] = p[def.name]
		}
		s.Metrics = append(s.Metrics, newMetric(def, median(vals), len(vals), vals))
	}
	return s
}
