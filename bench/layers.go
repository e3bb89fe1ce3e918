package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"strings"
	"time"
)

// Layers, named after the simulator's modules. A CPU-profile sample is
// charged to exactly one of them, or to unattributed or calibration.
var layerNames = []string{
	"sim", "shard", "mesh", "transport", "coherence", "directory", "swdir",
	"cache", "proc", "workload", "machine", "runtime", "bench",
}

const unattributed = "unattributed"

// calibration labels the samples of the host-speed calibration slices the
// traced child times between its runs; they are left out of every share.
const calibration = "calibration"

// layerRule maps the functions of one package to a layer. A rule with a
// nil funcs regexp is the package's default; a rule with funcs claims the
// matching functions. The funcs rules of one package must be disjoint.
type layerRule struct {
	pkg   string
	funcs *regexp.Regexp
	layer string
}

// layerRules is looked up by package and function name, as pprof prints
// them, never by file. bench/layers_test.go checks it against the files the
// shard and transport layers are defined by.
var layerRules = []layerRule{
	{pkg: "limitless/internal/sim", layer: "sim"},
	// sim/sharded.go and every ShardedEngine method: the windowed engine.
	{pkg: "limitless/internal/sim", layer: "shard", funcs: regexp.MustCompile(
		`^(NewShardedEngine|nextOrForever|ParseWindowMode|WindowMode\.|\(\*ShardedEngine\)\.|\(\*shardRunner\)\.)`)},

	{pkg: "limitless/internal/mesh", layer: "mesh"},
	// mesh/sharded.go and every ShardPort method.
	{pkg: "limitless/internal/mesh", layer: "shard", funcs: regexp.MustCompile(
		`^(\(\*ShardPort\)\.|\(\*deferredSend\)\.before|sendLog\.sortPending|\(\*Network\)\.(ShardPorts|HeldMin|FlushWindow)(\.|$))`)},
	// The loss path of mesh/transport.go; (*Network).finishX, the delivery
	// release every run takes, stays in mesh.
	{pkg: "limitless/internal/mesh", layer: "transport", funcs: regexp.MustCompile(
		`^(xsum|linkKey|newXrecv|\(\*transport\)\.|\(\*xrecv\)\.|\(\*seqRetrans\)\.|\(\*portRetrans\)\.|` +
			`\(\*Network\)\.(EnableTransport|TransportActive|OnTransportStuck|StuckLinks|TransportStats|FaultCounts|xmit|takeRetrans|discardX|flushX)(\.|$))`)},
	{pkg: "limitless/internal/fault", layer: "transport"},

	{pkg: "limitless/internal/coherence", layer: "coherence"},
	{pkg: "limitless/internal/protocol", layer: "coherence"},
	{pkg: "limitless/internal/ipi", layer: "coherence"},
	{pkg: "limitless/internal/directory", layer: "directory"},
	{pkg: "limitless/internal/swdir", layer: "swdir"},
	{pkg: "limitless/internal/cache", layer: "cache"},
	{pkg: "limitless/internal/proc", layer: "proc"},
	{pkg: "limitless/internal/workload", layer: "workload"},
	{pkg: "limitless/internal/trace", layer: "workload"},

	{pkg: "limitless", layer: "machine"},
	{pkg: "limitless/internal/machine", layer: "machine"},
	{pkg: "limitless/internal/check", layer: "machine"},
	{pkg: "limitless/internal/stats", layer: "machine"},
	{pkg: "limitless/internal/experiments", layer: "machine"},

	// The harness: its span wrappers are the tracing overhead. A test
	// binary names the package by import path instead of main.
	{pkg: "main", layer: "bench"},
	{pkg: "limitless/bench", layer: "bench"},
	{pkg: "main", layer: calibration, funcs: regexp.MustCompile(`^\(\*calibrator\)\.`)},
	{pkg: "limitless/bench", layer: calibration, funcs: regexp.MustCompile(`^\(\*calibrator\)\.`)},
}

// splitFunc splits a pprof function name into package path and the rest:
// "limitless/internal/mesh.(*Network).xmit" gives "limitless/internal/mesh"
// and "(*Network).xmit".
func splitFunc(fn string) (pkg, name string) {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+1+dot+1:]
}

// moduleLayer returns the layer of a function of this module, and false for
// any other function (the standard library and the Go runtime).
func moduleLayer(pkg, name string) (string, bool) {
	layer, found := "", false
	for _, r := range layerRules {
		if r.pkg != pkg {
			continue
		}
		if r.funcs == nil {
			if !found {
				layer, found = r.layer, true
			}
		} else if r.funcs.MatchString(name) {
			return r.layer, true
		}
	}
	return layer, found
}

// attribute charges one sample's stack, leaf first, to a layer:
//   - a leaf in this module goes to its layer;
//   - a runtime leaf reached straight from this module (malloc, write
//     barriers, memmove) or from no module code at all (GC workers, the
//     scheduler) goes to runtime;
//   - any other standard-library leaf (internal/runtime/maps, hash, sort,
//     sync, time), and runtime work such a package does, goes to the
//     nearest caller inside this module;
//   - the CPU profiler's own goroutine goes to bench.
func attribute(stack []string) string {
	leafRuntime := false
	viaStdlib := false
	for i, fn := range stack {
		pkg, name := splitFunc(fn)
		if pkg == "runtime" {
			if i == 0 {
				leafRuntime = true
			}
			continue
		}
		if layer, ok := moduleLayer(pkg, name); ok {
			if leafRuntime && !viaStdlib {
				return "runtime"
			}
			return layer
		}
		if pkg == "runtime/pprof" {
			return "bench"
		}
		viaStdlib = true
	}
	if leafRuntime {
		return "runtime"
	}
	return unattributed
}

// foldTraces reads the text of `go tool pprof -traces` and returns the
// sampled time of each layer, unattributed and calibration included.
func foldTraces(r io.Reader) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			out[attribute(stack)] += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		// A function name may hold spaces (generic shapes such as
		// "Table[go.shape.struct { ... }]"), so only the value is a field.
		fn := strings.TrimSpace(strings.TrimSuffix(line, " (inline)"))
		if !inTraces || fn == "" {
			continue
		}
		if len(stack) == 0 {
			// The first line of a trace carries the sample value.
			v, rest, ok := strings.Cut(fn, " ")
			d, err := time.ParseDuration(v)
			if !ok || err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			value = d
			fn = strings.TrimSpace(rest)
		}
		stack = append(stack, fn)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	flush()
	return out, nil
}

// foldProfile runs `go tool pprof -traces` on a CPU profile and folds it.
func foldProfile(path string) (map[string]time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	folded, ferr := foldTraces(out)
	if ferr != nil {
		_, _ = io.Copy(io.Discard, out) // let pprof finish writing before Wait
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %v: %s", path, err, stderr.String())
	}
	return folded, ferr
}
