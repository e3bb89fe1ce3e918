package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"limitless"
)

// childEnv carries a child's job as JSON; its presence selects child mode.
const childEnv = "LIMITLESS_BENCH_CHILD"

// job is the work of one child process.
type job struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Runs     int    `json:"runs"`
	// Until, when set, ends the timed runs early once it has passed (after
	// at least one), so a time-boxed pass ends on time.
	Until   time.Time `json:"until"`
	Traced  bool      `json:"traced"`
	Profile string    `json:"profile,omitempty"` // CPU profile path, traced only
}

// more reports whether timed run i should start.
func (j job) more(i int) bool {
	return i < j.Runs && (i == 0 || j.Until.IsZero() || time.Now().Before(j.Until))
}

// childResult is what a child reports on its standard output.
type childResult struct {
	SetupNs     int64       `json:"setup_ns"`
	CalibNs     int64       `json:"calib_ns"` // median calibration slice (see calibrate.go)
	RunNs       []int64     `json:"run_ns"`   // host wall time of each timed run
	Cycles      int64       `json:"cycles"`   // simulated cycles over the timed runs
	Fingerprint fingerprint `json:"fingerprint"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	Errors      []string    `json:"errors,omitempty"`
	// Allocations and collections over the timed runs.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCs        uint64 `json:"gcs"`
	// MaxRSSKB is filled in by the parent from the child's rusage.
	MaxRSSKB int64 `json:"max_rss_kb"`
	// Layers holds a traced child's per-layer counts, spans and replays.
	Layers metricValues `json:"layers,omitempty"`
}

// record checks one full run: it fails on an error, on protocol
// violations, or on a fingerprint other than the verify run's.
func (c *childResult) record(err error, fp fingerprint) {
	c.Attempted++
	switch {
	case err != nil:
		c.fail(err.Error())
	case fp.Violations > 0:
		c.fail(fmt.Sprintf("%d protocol violations", fp.Violations))
	case fp != c.Fingerprint:
		c.fail(fmt.Sprintf("fingerprint %v differs from the verify run's %v", fp, c.Fingerprint))
	}
}

func (c *childResult) fail(msg string) {
	c.Failed++
	if len(c.Errors) < 5 {
		c.Errors = append(c.Errors, msg)
	}
}

func childMain(raw string) int {
	var j job
	if err := json.Unmarshal([]byte(raw), &j); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: bad job %q: %v\n", raw, err)
		return 2
	}
	res, err := runJob(j)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", j.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", j.Workload, err)
		return 1
	}
	return 0
}

// setupCalibSlices are the calibration slices of a set-up-only child.
const setupCalibSlices = 10

// runJob measures set-up on the process's first, cold Run, makes one
// untimed verify run whose fingerprint every later run must repeat, one
// untimed warm-up run, and j.Runs timed runs, each followed by a
// calibration slice. With j.Runs == 0 it only measures set-up.
func runJob(j job) (childResult, error) {
	w, err := workloadByName(j.Workload)
	if err != nil {
		return childResult{}, err
	}
	cfg := w.config(j.Seed)
	var res childResult

	cold := cfg
	cold.MaxCycles = 1 // stops after building, starting and one cycle
	start := time.Now()
	_, _ = limitless.Run(cold, w.workload()) // the error only reports the stop
	res.SetupNs = int64(time.Since(start))
	cal, err := newCalibrator()
	if err != nil {
		return res, err
	}
	if j.Runs == 0 { // a set-up sample only
		for i := 0; i < setupCalibSlices; i++ {
			cal.measure()
		}
		res.CalibNs = cal.ns()
		return res, nil
	}

	verify := cfg
	verify.Verify = true
	r, err := limitless.Run(verify, w.workload())
	res.Fingerprint = resultFingerprint(r)
	res.record(err, res.Fingerprint)

	if j.Traced {
		return runTraced(w, j, res, cal)
	}

	r, err = limitless.Run(cfg, w.workload())
	res.record(err, resultFingerprint(r))

	res.RunNs = make([]int64, 0, j.Runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; j.more(i); i++ {
		start := time.Now()
		r, err := limitless.Run(cfg, w.workload())
		res.RunNs = append(res.RunNs, int64(time.Since(start)))
		res.Cycles += r.Cycles
		res.record(err, resultFingerprint(r))
		cal.measure()
	}
	runtime.ReadMemStats(&after)
	res.CalibNs = cal.ns()
	res.Mallocs = after.Mallocs - before.Mallocs
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.GCs = uint64(after.NumGC - before.NumGC)
	return res, nil
}
