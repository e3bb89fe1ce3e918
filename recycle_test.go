package limitless_test

// Run-scoped memory is recycled through process-wide pools when a machine
// is released: every node's controllers, processor, cache and IPI queue,
// cache pages, directory tables and entry chunks, engine buckets and event
// free lists, the network's per-node arrays, send log, delivery and
// retransmission records, spare messages, link table and hold buffer; the
// injected duplicates' records return to their pool as they fire. These
// tests check that a machine built on recycled memory is
// indistinguishable from one built on fresh memory, whatever state the
// previous machines were released in.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	limitless "limitless"
	"limitless/internal/check"
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/machine"
	"limitless/internal/mesh"
	"limitless/internal/proc"
	"limitless/internal/trace"
	"limitless/internal/workload"
)

// TestRecycleAfterDissimilarRuns releases machines of other sizes,
// topologies, fault plans, engines, schemes, handler bindings and oracle
// configurations, halted in every way
// a run can halt (finished, cut at a cycle limit, tripped by the watchdog,
// aborted by the transport), between two identical reference runs; the two
// must give equal Results. The chain then runs again in reverse order,
// each configuration twice in a row, so it draws the per-node objects
// first a different configuration and then it itself left in the pools —
// processor contexts, chained list positions, update-mode marks,
// deferred packets, IPI packets — and must repeat its first Result each
// time. Neighbours are chosen to touch what the one before leaves: the
// software-only run traps on the FIFO lock's address, and a plain
// producer-consumer run stores to the variable the update-mode run
// registered.
func TestRecycleAfterDissimilarRuns(t *testing.T) {
	ref := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50, Verify: true}
	first, err := limitless.Run(ref, limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	var traced bytes.Buffer
	if err := trace.Write(&traced, trace.Generate(trace.DefaultGen(16))); err != nil {
		t.Fatal(err)
	}
	fromTrace := func() limitless.Workload {
		wl, err := limitless.FromTrace(bytes.NewReader(traced.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	wl := func(w limitless.Workload) func() limitless.Workload {
		return func() limitless.Workload { return w }
	}
	chain := []struct {
		name    string
		cfg     limitless.Config
		wl      func() limitless.Workload // the trace workload replays shared state, so each run builds its own
		wantErr string                    // substring of the expected error; empty for none
	}{
		{"p256", limitless.Config{Procs: 256}, wl(limitless.Weather(256)), ""},
		// The network's per-node arrays come back sized by node count and
		// topology: the omega machine draws the mesh arrays of a larger
		// machine, and its inter-stage channels serve the next omega run.
		{"omega", limitless.Config{Procs: 16, Topology: "omega"}, wl(limitless.Weather(16)), ""},
		// Two lossy machines of other sizes and seeds: each draws the link
		// table, hold buffer, retransmission and duplicate records the
		// other left, and then its own. The second is then cut at a cycle
		// where arrivals are held, so the next lossy run draws a hold
		// buffer released with arrivals in it.
		{"lossy", limitless.Config{Procs: 64, Faults: lossyFaults}, wl(limitless.Weather(64)), ""},
		{"lossy16", limitless.Config{Procs: 16, Faults: "7:dup=0.1,drop=0.05,corrupt=0.02"},
			wl(limitless.Weather(16)), ""},
		{"lossy16-cut", limitless.Config{Procs: 16, Faults: "7:dup=0.1,drop=0.05,corrupt=0.02", MaxCycles: 5750},
			wl(limitless.Weather(16)), "exceeded"},
		{"heap-boxed", limitless.WithOracles(limitless.Config{Procs: 64, Scheme: limitless.FullMap},
			machine.OracleHeap|machine.OracleBoxed), wl(limitless.Multigrid(64)), ""},
		// One live context per processor (the facade fills context 0
		// only); the case checks that a four-slot context array is reused.
		{"contexts4", limitless.Config{Procs: 64, Contexts: 4}, wl(limitless.Weather(64)), ""},
		{"chained-migratory", limitless.Config{Procs: 16, Scheme: limitless.Chained}, wl(limitless.Migratory(16, 4)), ""},
		{"fifo-locks", limitless.Config{Procs: 16, FIFOLocks: []limitless.Addr{limitless.LockAddr()}},
			wl(limitless.LockContention(16, 4)), ""},
		{"software-only", limitless.Config{Procs: 16, Scheme: limitless.SoftwareOnly}, wl(limitless.LockContention(16, 4)), ""},
		{"update-mode", limitless.Config{Procs: 16, UpdateMode: []limitless.Addr{limitless.ProducerConsumerAddr()}},
			wl(limitless.ProducerConsumer(16, 4)), ""},
		{"producer-consumer", limitless.Config{Procs: 16}, wl(limitless.ProducerConsumer(16, 4)), ""},
		{"trace", limitless.Config{Procs: 16}, fromTrace, ""},
		{"max-cycles", limitless.Config{Procs: 64, MaxCycles: 3000}, wl(limitless.Weather(64)), "exceeded"},
		{"watchdog", limitless.Config{Procs: 16, Pointers: 2, TrapService: 400_000, WatchdogCycles: 2_000,
			MaxCycles: 50_000_000}, wl(limitless.Weather(16)), "watchdog"},
		{"transport-abort", limitless.Config{Procs: 16, Scheme: limitless.FullMap, Faults: "1:drop=1,rto=16,rmax=3",
			WatchdogCycles: 500_000, MaxCycles: 10_000_000},
			wl(limitless.Weather(16)), "retransmit budget"},
	}
	run := func(i int) limitless.Result {
		c := chain[i]
		res, err := limitless.Run(c.cfg, c.wl())
		switch {
		case c.wantErr == "" && err != nil:
			t.Fatalf("%s: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Fatalf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
		return res
	}
	results := make([]limitless.Result, len(chain))
	for i := range chain {
		results[i] = run(i)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		for _, after := range []string{"the next configuration", "itself"} {
			if res := run(i); !reflect.DeepEqual(res, results[i]) {
				t.Errorf("%s on the memory %s left differs from its first run:\nfirst %+v\nagain %+v",
					chain[i].name, after, results[i], res)
			}
		}
	}
	last, err := limitless.Run(ref, limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, last) {
		t.Fatalf("Weather P=16 on recycled memory differs from the first run:\nfirst %+v\nlast  %+v", first, last)
	}
}

// TestRecycleDoubleRelease releases a machine a second time in two orders
// — straight after the first Release, and after another machine has been
// built from the node components the first Release pooled — while that
// other machine, cut off mid-run (transactions outstanding, messages in
// flight, events queued), stays alive and a third machine runs to
// completion. A second Release that put anything back would hand the
// live machine's controllers, pages, messages or tables to the third one,
// and its run would overwrite the live machine's state.
func TestRecycleDoubleRelease(t *testing.T) {
	build := func(wls []proc.Workload) *machine.Machine {
		m := machine.New(machine.Config{Width: 4, Height: 4, Contexts: 1, Params: coherence.DefaultParams(16)})
		for i, w := range wls {
			m.SetWorkload(mesh.NodeID(i), 0, w)
		}
		return m
	}
	weather := func() []proc.Workload { return workload.Weather(workload.DefaultWeather(16)) }
	multigrid := func() []proc.Workload { return workload.Multigrid(workload.DefaultMultigrid(16)) }

	fresh := build(multigrid())
	want := fresh.Run()

	for _, order := range []string{"release twice, then build", "release, build, release again"} {
		a := build(weather())
		a.Run()
		a.Release()
		if order == "release twice, then build" {
			a.Release()
		}
		b := build(weather())
		if order == "release, build, release again" {
			a.Release()
		}
		if _, done := b.RunUntil(3000); done {
			t.Fatal("weather P=16 finished within 3000 cycles; the cut must leave work in flight")
		}
		before := snapshot(b)
		if !strings.Contains(before, "outstanding") {
			t.Fatal("the cut left no outstanding transaction to watch")
		}
		c := build(multigrid())
		if got := c.Run(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a machine built after a double Release ran differently:\ngot  %+v\nwant %+v", order, got, want)
		}
		if bad := check.EndState(c); len(bad) > 0 {
			t.Errorf("%s: coherence violations after a double Release: %v", order, bad)
		}
		if after := snapshot(b); after != before {
			t.Errorf("%s: running one machine changed another's state: a second Release handed memory to both", order)
		}
		c.Release()
		b.Release()
	}
}

// snapshot renders a machine's observable state: every directory entry,
// every cache's view of each entry's block, each node's outstanding
// transactions, and the pending event count.
func snapshot(m *machine.Machine) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pending %d\n", m.Eng.Pending())
	for _, home := range m.Nodes {
		home.MC.Dir().ForEach(func(addr directory.Addr, e *directory.Entry) {
			fmt.Fprintf(&sb, "entry %#x %v %v %v ack=%d local=%v value=%d pending=%d\n",
				addr, e.State, e.Meta, e.Ptrs.Nodes(), e.AckCtr, e.Local, e.Value, e.Pending)
			for _, n := range m.Nodes {
				v, ok := n.Cache.Read(addr)
				fmt.Fprintf(&sb, "  node %d %v %d %v\n", n.ID, n.Cache.State(addr), v, ok)
			}
		})
	}
	for _, n := range m.Nodes {
		for _, op := range n.CC.OutstandingOps() {
			fmt.Fprintf(&sb, "outstanding node %d %+v\n", n.ID, op)
		}
		fmt.Fprintf(&sb, "cache %d occupancy %d\n", n.ID, n.Cache.Occupancy())
	}
	return sb.String()
}

// TestRecycleSweepMatchesSequential runs a mixed sweep on four workers,
// whose machines recycle each other's memory concurrently, and demands the
// Results of one sequential Run per configuration.
func TestRecycleSweepMatchesSequential(t *testing.T) {
	schemes := []limitless.Scheme{limitless.LimitLESS, limitless.FullMap, limitless.LimitedNB, limitless.Chained}
	var cfgs []limitless.Config
	wls := map[int64]func(int) limitless.Workload{}
	for i := 0; i < 16; i++ {
		cfg := limitless.Config{Procs: 16, Scheme: schemes[i%len(schemes)], Pointers: 2 + i%3,
			TrapService: int64(40 + i)} // a distinct T_s per point lets mk find its workload
		if i%4 == 3 {
			cfg.Procs = 64
		}
		if i == 5 {
			cfg.Faults = "7:delay=0.05,dup=0.02,drop=0.02,corrupt=0.01"
		}
		wls[cfg.TrapService] = limitless.Weather
		if i%2 == 1 {
			wls[cfg.TrapService] = limitless.Multigrid
		}
		cfgs = append(cfgs, cfg)
	}
	mk := func(cfg limitless.Config) limitless.Workload { return wls[cfg.TrapService](cfg.Procs) }
	got, err := limitless.SweepN(cfgs, mk, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := limitless.Run(cfg, mk(cfg))
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("point %d (%+v): sweep result differs from a sequential Run:\nsweep %+v\nrun   %+v",
				i, cfg, got[i], want)
		}
	}
}
