package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/ipi"
	"limitless/internal/machine"
	"limitless/internal/mesh"
	"limitless/internal/proc"
)

// spanSample is the share of calls a span times: one in spanSample,
// picked pseudo-randomly per node. Reading the clock twice costs about
// 100 ns on a virtualised x86 host, as much as a whole workload.next call,
// so timing every call would double the traced run. Call counts stay exact.
const spanSample = 16

// spans aggregates one span kind per node: exact call counts plus the host
// time of the sampled calls. Each node runs on one goroutine, even on the
// sharded engine, so per-node slots need no locking.
type spans struct {
	calls, timed []uint64
	ns           []int64
	rng          []uint64
}

func newSpans(nodes int) spans {
	s := spans{calls: make([]uint64, nodes), timed: make([]uint64, nodes),
		ns: make([]int64, nodes), rng: make([]uint64, nodes)}
	s.reset()
	return s
}

func (s *spans) reset() {
	for i := range s.calls {
		s.calls[i], s.timed[i], s.ns[i] = 0, 0, 0
		s.rng[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
}

// sample counts a call at node and reports whether to time it.
func (s *spans) sample(node int) bool {
	s.calls[node]++
	x := s.rng[node]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng[node] = x
	return x%spanSample == 0
}

func (s *spans) add(node int, d time.Duration) {
	s.timed[node]++
	s.ns[node] += int64(d)
}

// perCall returns the calls and the mean inclusive ns per timed call.
func (s *spans) perCall() (calls uint64, ns float64) {
	var timed uint64
	var total int64
	for i := range s.calls {
		calls += s.calls[i]
		timed += s.timed[i]
		total += s.ns[i]
	}
	return calls, ratio(float64(total), float64(timed))
}

// access is one processor memory reference of the recorded mix.
type access struct {
	addr  directory.Addr
	store bool
}

// tracer times calls into layer entry points from outside the program:
// workload.next (proc.Workload.Next), swdir.handle (the trap handler) and
// coherence.deliver (the node's network ejection handler). Every span's
// parent is the run. While recording, it also keeps each node's memory
// references and the block addresses delivered to each home.
type tracer struct {
	next, handle, deliver spans
	recording             bool
	ops                   [][]access
	homes                 [][]directory.Addr
}

func newTracer(nodes int) *tracer {
	return &tracer{next: newSpans(nodes), handle: newSpans(nodes), deliver: newSpans(nodes),
		ops: make([][]access, nodes), homes: make([][]directory.Addr, nodes)}
}

func (t *tracer) reset() {
	t.next.reset()
	t.handle.reset()
	t.deliver.reset()
}

type tracedWorkload struct {
	inner proc.Workload
	node  int
	t     *tracer
}

func (w *tracedWorkload) Next(prev uint64) (proc.Op, bool) {
	var op proc.Op
	var ok bool
	if w.t.next.sample(w.node) {
		start := time.Now()
		op, ok = w.inner.Next(prev)
		w.t.next.add(w.node, time.Since(start))
	} else {
		op, ok = w.inner.Next(prev)
	}
	if w.t.recording && ok && op.Kind != proc.OpCompute {
		w.t.ops[w.node] = append(w.t.ops[w.node], access{addr: op.Addr, store: op.Kind != proc.OpLoad})
	}
	return op, ok
}

type tracedHandler struct {
	inner proc.Handler
	node  int
	t     *tracer
}

func (h *tracedHandler) Handle(p *ipi.Packet) {
	if !h.t.handle.sample(h.node) {
		h.inner.Handle(p)
		return
	}
	start := time.Now()
	h.inner.Handle(p)
	h.t.handle.add(h.node, time.Since(start))
}

// deliverer is the ejection handler the machine installs on a fault-free
// run, plus the coherence.deliver span. Runs with a fault plan keep the
// machine's own handler, which also injects duplicates and unwraps replays.
func (t *tracer) deliverer(n *machine.Node) mesh.Handler {
	id := int(n.ID)
	return func(pkt *mesh.Packet) {
		msg := pkt.Payload.(*coherence.Msg)
		toMemory := msg.Type.ToMemory()
		if t.recording && toMemory {
			t.homes[id] = append(t.homes[id], msg.Addr)
		}
		timed := t.deliver.sample(id)
		var start time.Time
		if timed {
			start = time.Now()
		}
		if toMemory {
			n.MC.Handle(pkt.Src, msg)
		} else {
			n.CC.HandleMem(pkt.Src, msg)
		}
		if timed {
			t.deliver.add(id, time.Since(start))
		}
	}
}

// run builds, runs and releases one traced machine, as limitless.Run does
// for the untraced pass.
func (t *tracer) run(w spec, mc machine.Config) (machine.Result, metricValues, error) {
	m := machine.New(mc)
	defer m.Release()
	for i, p := range w.programs() {
		m.SetWorkload(mesh.NodeID(i), 0, &tracedWorkload{inner: p, node: i, t: t})
	}
	for _, n := range m.Nodes {
		n.Proc.Attach(n.MC, &tracedHandler{inner: n.Handler, node: int(n.ID), t: t})
		if mc.Faults == nil {
			m.Net.Register(n.ID, t.deliverer(n))
		}
	}
	res := m.Run()
	c := layerCounters(m, res)
	if d := m.Diagnostic(); d != nil {
		return res, c, fmt.Errorf("%s", d)
	}
	return res, c, nil
}

// metricValues maps per-layer metric names to values.
type metricValues map[string]float64

// layerCounters returns the layer counts of one traced run. They are
// deterministic, so one run speaks for all.
func layerCounters(m *machine.Machine, r machine.Result) metricValues {
	nodes := float64(len(m.Nodes))
	hits := float64(r.Misses.Hits)
	refs := hits + float64(r.Misses.LocalMisses+r.Misses.RemoteMisses)
	pend := 0.0
	if mc := m.Config(); mc.Shards == 0 {
		pend = ratio(float64(m.Eng.Inlined()), float64(m.Eng.Processed()))
	}
	return metricValues{
		"sim.events_per_run":                  float64(r.Events),
		"sim.pend_share":                      pend,
		"mesh.packets_per_run":                float64(r.Network.Packets),
		"mesh.flits_per_packet":               ratio(float64(r.Network.Flits), float64(r.Network.Packets)),
		"mesh.latency_cycles":                 r.Network.AvgLatency(),
		"transport.retransmits_per_run":       float64(r.FaultStats.Retransmits),
		"transport.drops_per_run":             float64(r.FaultStats.Drops),
		"transport.corrupts_per_run":          float64(r.FaultStats.Corrupts),
		"transport.dups_per_run":              float64(r.FaultStats.Dups),
		"coherence.messages_per_run":          float64(r.Coherence.TotalSent()),
		"coherence.invalidations_per_run":     float64(r.Coherence.InvalidationsSent),
		"coherence.busies_per_run":            float64(r.Coherence.Busies),
		"coherence.retries_per_run":           float64(r.Coherence.Retries),
		"directory.bytes_per_entry":           m.DirectoryMemory().MeasuredBytesPerEntry,
		"directory.pointer_overflows_per_run": float64(r.Coherence.PointerOverflows),
		"swdir.traps_per_run":                 float64(r.Coherence.Traps),
		"swdir.software_fraction":             ratio(float64(r.Coherence.Traps), float64(r.Misses.RemoteMisses)),
		"cache.hit_rate":                      ratio(hits, refs),
		"cache.remote_misses_per_run":         float64(r.Misses.RemoteMisses),
		"cache.remote_latency_cycles":         r.Misses.AvgRemoteLatency(),
		"proc.instructions_per_run":           float64(r.Proc.Instructions),
		"proc.utilization":                    ratio(float64(r.Proc.BusyCycles), float64(r.Cycles)*nodes),
		"proc.context_switches_per_run":       float64(r.Proc.ContextSwitches),
		"machine.sim_cycles":                  float64(r.Cycles),
		"machine.events":                      float64(r.Events),
	}
}

// runTraced is the traced child: the replays of the recorded mix, then
// j.Runs traced runs under the CPU profiler, each followed by a
// calibration slice, as in the untraced child; the fold leaves the slices'
// samples out. res already holds the set-up and verify runs.
func runTraced(w spec, j job, res childResult, cal *calibrator) (childResult, error) {
	mc, err := w.machineConfig(j.Seed)
	if err != nil {
		return res, err
	}
	metrics, err := replays()
	if err != nil {
		return res, err
	}
	t := newTracer(w.procs)
	warm, _, err := t.run(w, mc)
	res.record(err, machineFingerprint(warm))
	t.reset()

	f, err := os.Create(j.Profile)
	if err != nil {
		return res, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return res, err
	}
	for i := 0; j.more(i); i++ {
		start := time.Now()
		r, c, err := t.run(w, mc)
		res.RunNs = append(res.RunNs, int64(time.Since(start)))
		res.Cycles += int64(r.Cycles)
		res.record(err, machineFingerprint(r))
		if i == 0 {
			for k, v := range c {
				metrics[k] = v
			}
		}
		cal.measure()
	}
	pprof.StopCPUProfile()
	res.CalibNs = cal.ns()
	if err := f.Close(); err != nil {
		return res, err
	}

	runs := float64(len(res.RunNs))
	for _, s := range []struct {
		name string
		sp   *spans
	}{{"workload.next", &t.next}, {"swdir.handle", &t.handle}, {"coherence.deliver", &t.deliver}} {
		calls, ns := s.sp.perCall()
		metrics[s.name+".calls_per_run"] = float64(calls) / runs
		metrics[s.name+".ns_per_call"] = ns
	}
	res.Layers = metrics
	return res, nil
}
