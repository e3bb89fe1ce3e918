// Command bench is the repository benchmark: host-speed metrics of the
// LimitLESS simulator on four workloads, end to end and per layer.
//
//	bash bench/run.sh                  # untraced pass, 10 interleaved rounds
//	bash bench/run.sh -trace           # traced pass: per-layer metrics
//	bash bench/run.sh -smoke           # 1 round, 2 runs per workload, both passes
//	bash bench/run.sh --workload weather-p64 --seed 7 --seconds 25 --trace 0
//
// Each round starts one fresh child process per workload with GOMAXPROCS=1;
// the parent pools the children's samples, checks the runs' outputs, prints
// every metric with its unit, sample count and quartiles, and writes the
// same data as JSON. With -workload it runs that workload alone for
// -seconds and prints, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"text/tabwriter"
	"time"
)

const (
	// rounds is the untraced pass's round count; the traced pass runs a
	// third of it.
	rounds      = 10
	traceRounds = 3
	smokeRuns   = 2
	// setupChildren are the set-up-only children each untraced round
	// starts per workload besides the measuring one: set-up is cold once
	// per process, so its median needs more processes than the runs do.
	setupChildren = 4
)

func main() {
	if raw, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(raw))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs rewrites "--trace 0" and "--trace 1", the form automated
// benchmark runners pass, to the flag package's "-trace=0" and "-trace=1".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload for -seconds and end with one JSON result line")
	seed := fs.Uint64("seed", 42, "fault-plan seed of the lossy workload")
	seconds := fs.Int("seconds", 25, "measurement time of a -workload run")
	trace := fs.Bool("trace", false, "traced pass: per-layer metrics instead of end-to-end ones")
	smoke := fs.Bool("smoke", false, "1 round, 2 runs per workload, both passes")
	workdir := fs.String("workdir", ".bench_build", "directory for CPU profiles and result files")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(*workdir, "profiles"), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	base := plan{workloads: workloads, seed: *seed, exe: exe, workdir: *workdir, log: stderr}

	var passes []plan
	switch {
	case *workload != "":
		w, err := workloadByName(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		p := base
		p.workloads = []spec{w}
		p.budget = time.Duration(*seconds) * time.Second
		p.traced = *trace
		passes = []plan{p}
	case *smoke:
		p := base
		p.rounds = 1
		p.runs = smokeRuns
		t := p
		t.traced = true
		passes = []plan{p, t}
	case *trace:
		p := base
		p.rounds = traceRounds
		p.traced = true
		passes = []plan{p}
	default:
		p := base
		p.rounds = rounds
		passes = []plan{p}
	}

	failed := false
	for _, p := range passes {
		sums, err := p.execute()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printSummaries(stdout, p, sums)
		if err := p.writeJSON(sums); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, s := range sums {
			failed = failed || s.Failed > 0 || len(s.Errors) > 0
		}
		if *workload != "" {
			line, err := resultLine(sums[0])
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	if failed {
		fmt.Fprintln(stderr, "bench: FAIL: some runs failed their correctness checks (see errors above)")
		return 1
	}
	return 0
}

// plan is one pass: rounds of child processes, one per workload in turn.
type plan struct {
	workloads []spec
	seed      uint64
	rounds    int           // rounds to run; 0 runs rounds until budget has elapsed
	budget    time.Duration // measurement time when rounds is 0
	runs      int           // timed runs per child; 0 takes each workload's runs per round
	traced    bool          // after each untraced child, start a traced one
	exe       string
	workdir   string
	log       io.Writer
}

func (p plan) name() string {
	if p.traced {
		return "traced"
	}
	return "untraced"
}

// execute runs the pass. Interleaving the workloads within each round
// spreads minute-scale drift of the host evenly across them.
func (p plan) execute() ([]summary, error) {
	setups := map[string][]childResult{}
	untraced := map[string][]childResult{}
	traced := map[string][]childResult{}
	folds := map[string][]map[string]time.Duration{}
	deadline := time.Now().Add(p.budget)
	for r := 0; p.rounds == 0 || r < p.rounds; r++ {
		if p.rounds == 0 && r > 0 && time.Now().After(deadline) {
			break
		}
		for _, w := range p.workloads {
			for k := 0; k < setupChildren && !p.traced; k++ {
				c, err := p.spawn(job{Workload: w.name, Seed: p.seed})
				if err != nil {
					return nil, err
				}
				setups[w.name] = append(setups[w.name], c)
			}
			runs := w.runs
			if p.runs > 0 {
				runs = p.runs
			}
			j := job{Workload: w.name, Seed: p.seed, Runs: runs}
			switch {
			case p.traced:
				// The untraced partner of a traced child only prices the
				// tracing and counts allocations: a third of the runs do.
				j.Runs = max(1, runs/3)
			case p.rounds == 0:
				// A time-boxed untraced pass cuts its last child short to end
				// on time; traced rounds always complete, so that each
				// profile covers a whole child.
				j.Until = deadline
			}
			c, err := p.spawn(j)
			if err != nil {
				return nil, err
			}
			untraced[w.name] = append(untraced[w.name], c)
			if !p.traced {
				continue
			}
			j.Runs, j.Traced = runs, true
			j.Profile = filepath.Join(p.workdir, "profiles", fmt.Sprintf("%s-%d.pprof", w.name, r))
			if c, err = p.spawn(j); err != nil {
				return nil, err
			}
			fold, err := foldProfile(j.Profile)
			if err != nil {
				return nil, err
			}
			traced[w.name] = append(traced[w.name], c)
			folds[w.name] = append(folds[w.name], fold)
		}
	}
	var sums []summary
	for _, w := range p.workloads {
		if p.traced {
			sums = append(sums, summarizeTraced(w.name, untraced[w.name], traced[w.name], folds[w.name]))
		} else {
			sums = append(sums, summarizeUntraced(w.name, untraced[w.name], setups[w.name]))
		}
	}
	return sums, nil
}

// spawn runs one child process and waits for it.
func (p plan) spawn(j job) (childResult, error) {
	raw, err := json.Marshal(j)
	if err != nil {
		return childResult{}, err
	}
	kind := "untraced"
	switch {
	case j.Traced:
		kind = "traced"
	case j.Runs == 0:
		kind = "set-up"
	}
	if j.Runs > 0 {
		fmt.Fprintf(p.log, "bench: %s %s child, %d runs\n", j.Workload, kind, j.Runs)
	}
	cmd := exec.Command(p.exe)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", childEnv+"="+string(raw))
	cmd.Stderr = p.log
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s %s child: %w", j.Workload, kind, err)
	}
	var c childResult
	if err := json.Unmarshal(out, &c); err != nil {
		return childResult{}, fmt.Errorf("%s %s child: bad result: %w", j.Workload, kind, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.MaxRSSKB = ru.Maxrss
	}
	return c, nil
}

func printSummaries(w io.Writer, p plan, sums []summary) {
	how := fmt.Sprintf("%d rounds", p.rounds)
	if p.rounds == 0 {
		how = fmt.Sprintf("%v of rounds", p.budget)
	}
	fmt.Fprintf(w, "== %s pass: %s, seed %d, GOMAXPROCS=1 children\n", p.name(), how, p.seed)
	for _, s := range sums {
		fmt.Fprintf(w, "\n%s: %d children, %d runs attempted, %d failed\n", s.Workload, s.Children, s.Attempted, s.Failed)
		fmt.Fprintf(w, "  fingerprint: %v\n", s.Fingerprint)
		for _, e := range s.Errors {
			fmt.Fprintf(w, "  FAIL: %s\n", e)
		}
		tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tvalue\tunit\tn\tq1\tq3\t")
		for _, m := range s.Metrics {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%d\t%.6g\t%.6g\t\n", m.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
		}
		for _, m := range s.Info {
			fmt.Fprintf(tw, "  %s (info)\t%.6g\t%s\t%d\t\t\t\n", m.Name, m.Value, m.Unit, m.N)
		}
		_ = tw.Flush() // w is standard output or a buffer
	}
	fmt.Fprintln(w)
}

// writeJSON writes the pass's summaries to <workdir>/<pass>.json.
func (p plan) writeJSON(sums []summary) error {
	doc := struct {
		Pass      string    `json:"pass"`
		Seed      uint64    `json:"seed"`
		Rounds    int       `json:"rounds"`
		Workloads []summary `json:"workloads"`
	}{p.name(), p.seed, p.rounds, sums}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(p.workdir, p.name()+".json"), append(raw, '\n'), 0o644)
}

// resultLine renders one workload's summary as the one-line JSON result:
// exactly the keys correct, attempted, failed and metrics.
func resultLine(s summary) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if s.Attempted < 1 {
		return nil, errors.New("no runs attempted")
	}
	metrics := map[string]value{}
	for _, m := range s.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{s.Failed == 0 && len(s.Errors) == 0, s.Attempted, s.Failed, metrics})
}
