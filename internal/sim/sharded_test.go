package sim

import (
	"fmt"
	"testing"
)

func TestWindowSeqOrdering(t *testing.T) {
	// Keys must order by (cycle, phase, counter) under plain uint64 compare.
	ordered := []uint64{
		WindowSeq(0, false, 0),
		WindowSeq(0, false, 1),
		WindowSeq(0, true, 0),
		WindowSeq(0, true, 7),
		WindowSeq(1, false, 0),
		WindowSeq(1, true, 0),
		WindowSeq(2, false, 3),
	}
	for i := 1; i < len(ordered); i++ {
		if ordered[i-1] >= ordered[i] {
			t.Fatalf("key %d (%#x) not below key %d (%#x)", i-1, ordered[i-1], i, ordered[i])
		}
	}
}

func TestWindowSeqBounds(t *testing.T) {
	for _, bad := range []func(){
		func() { WindowSeq(-1, false, 0) },
		func() { WindowSeq(seqCycleLimit, false, 0) },
		func() { WindowSeq(0, false, seqCtrLimit) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range WindowSeq did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestCycleSeqExecutionOrder: with cycle-tagged sequencing, same-deadline
// events still run in scheduling order, exactly like plain sequencing.
func TestCycleSeqExecutionOrder(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		e := New()
		e.SetCycleSeq(tagged)
		var got []int
		for i := 0; i < 5; i++ {
			i := i
			e.At(10, func() { got = append(got, i) })
		}
		e.At(3, func() {
			// Scheduled at cycle 0 but running at cycle 3: later same-cycle
			// rescheduling must still order after the cycle-0 batch above.
			e.At(10, func() { got = append(got, 5) })
		})
		e.Run()
		for i, v := range got {
			if v != i {
				t.Fatalf("cycleSeq=%v: order %v", tagged, got)
			}
		}
	}
}

func TestAtHandlerSeqRequiresCycleSeq(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AtHandlerSeq on a plain engine did not panic")
		}
	}()
	New().AtHandlerSeq(5, WindowSeq(0, true, 0), fnHandler(func(any) {}), nil)
}

type fnHandler func(arg any)

func (f fnHandler) OnEvent(arg any) { f(arg) }

// TestAtHandlerSeqInterleaving: barrier-phase insertions order between
// execution-phase events by allocation cycle, phase, then counter.
func TestAtHandlerSeqInterleaving(t *testing.T) {
	e := New()
	e.SetCycleSeq(true)
	var got []string
	mark := func(s string) Handler { return fnHandler(func(any) { got = append(got, s) }) }
	// Execution-phase events allocated at cycle 0 for deadline 10.
	e.AtHandler(10, mark("exec-c0-a"), nil)
	e.AtHandler(10, mark("exec-c0-b"), nil)
	// Flush insertion on behalf of a send at cycle 0: after the cycle-0
	// execution phase. A send at cycle 4: after anything allocated at
	// cycle 0 but before events allocated at cycle 5.
	e.AtHandlerSeq(10, WindowSeq(0, true, 0), mark("flush-c0"), nil)
	e.AtHandlerSeq(10, WindowSeq(4, true, 0), mark("flush-c4"), nil)
	e.At(5, func() { e.AtHandler(10, mark("exec-c5"), nil) })
	e.Run()
	want := []string{"exec-c0-a", "exec-c0-b", "flush-c0", "flush-c4", "exec-c5"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestNextEventTime(t *testing.T) {
	e := New()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reported a next event")
	}
	e.At(7, func() {})
	e.At(3, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 3 {
		t.Fatalf("next = %d, %v; want 3, true", at, ok)
	}
}

// shardedHarness is a miniature cross-shard model: each node counts down
// rounds, and each round sends a "message" to two other nodes, deferred to
// the window barrier and delivered after exactly `latency` cycles. It
// exercises the full window/flush/insert machinery without the mesh on top.
// Over one engine it flushes from the end-of-cycle hook instead, as a
// one-port network does.
// State obeys the sharding discipline: every mutable slice has a single
// writing goroutine (per-node traces and rounds written only by the node's
// shard, per-shard send logs written only by that shard, and the merge
// running only inside the single-threaded flush).
type shardedHarness struct {
	engines []*Engine
	nodeOf  []int // node -> engine index
	latency Time
	logs    [][][3]Time // per shard: deferred sends (sendTime, from, to)
	traces  [][]string  // per node: execution record
	rounds  []int
	buf     [][3]Time // flush merge scratch
	runners int       // runner goroutines the last run started
}

func newShardedHarness(nodes, shards int, latency Time, rounds int) *shardedHarness {
	h := &shardedHarness{latency: latency, logs: make([][][3]Time, shards)}
	for i := 0; i < shards; i++ {
		e := New()
		e.SetCycleSeq(shards > 1)
		h.engines = append(h.engines, e)
	}
	if shards == 1 {
		e := h.engines[0]
		mins := []Time{Forever}
		e.SetCycleHook(func() { h.flush(e.Now()+1, mins) })
	}
	h.traces = make([][]string, nodes)
	for n := 0; n < nodes; n++ {
		h.nodeOf = append(h.nodeOf, n*shards/nodes)
		h.rounds = append(h.rounds, rounds)
	}
	return h
}

func (h *shardedHarness) engineOf(node int) *Engine { return h.engines[h.nodeOf[node]] }

func (h *shardedHarness) receive(node int) {
	e := h.engineOf(node)
	h.traces[node] = append(h.traces[node], fmt.Sprintf("@%d", e.Now()))
	if h.rounds[node] == 0 {
		return
	}
	h.rounds[node]--
	shard := h.nodeOf[node]
	n := len(h.nodeOf)
	// Two destinations per round so that flushes see same-cycle sends from
	// several sources and must order them canonically.
	h.logs[shard] = append(h.logs[shard], [3]Time{e.Now(), Time(node), Time((node + 1) % n)})
	h.logs[shard] = append(h.logs[shard], [3]Time{e.Now(), Time(node), Time((node + 3) % n)})
	// One engine arms its end-of-cycle flush; windowed shards wait for
	// the barrier.
	if len(h.engines) == 1 {
		e.ArmCycleHook()
	}
}

// held counts the sends still logged.
func (h *shardedHarness) held() int {
	n := 0
	for _, log := range h.logs {
		n += len(log)
	}
	return n
}

func (h *shardedHarness) flush(before Time, mins []Time) {
	// Mirror mesh.FlushWindow: gather every logged send (all lie below
	// the barrier), stable-sort the batch by (send time, source), insert
	// under barrier-phase keys (one engine: its own numbering), and report
	// the earliest insertion per shard.
	buf := h.buf[:0]
	for s := range h.logs {
		for _, e := range h.logs[s] {
			if e[0] >= before {
				panic(fmt.Sprintf("harness send at %d logged at or past the barrier at %d", e[0], before))
			}
			buf = append(buf, e)
		}
		h.logs[s] = h.logs[s][:0]
	}
	for i := 1; i < len(buf); i++ { // insertion sort, stable on (time, src)
		for j := i; j > 0; j-- {
			a, b := &buf[j-1], &buf[j]
			if a[0] < b[0] || (a[0] == b[0] && a[1] <= b[1]) {
				break
			}
			buf[j-1], buf[j] = buf[j], buf[j-1]
		}
	}
	ctr := uint32(0)
	var cycle Time = -1
	for _, s := range buf {
		at, to := s[0], int(s[2])
		if at != cycle {
			cycle, ctr = at, 0
		}
		deliver := at + h.latency
		if deliver < before {
			panic("harness lookahead violation")
		}
		node := to
		recv := fnHandler(func(any) { h.receive(node) })
		if len(h.engines) == 1 {
			h.engines[0].AtHandler(deliver, recv, nil)
		} else {
			h.engineOf(node).AtHandlerSeq(deliver, WindowSeq(at, true, ctr), recv, nil)
		}
		ctr++
		if sh := h.nodeOf[node]; deliver < mins[sh] {
			mins[sh] = deliver
		}
	}
	h.buf = buf[:0]
}

func (h *shardedHarness) engine() *ShardedEngine {
	return NewShardedEngine(h.engines, h.latency, h.flush)
}

func (h *shardedHarness) run() ([][]string, Time) {
	s := h.engine()
	for n := range h.nodeOf {
		node := n
		h.engineOf(node).AtHandler(Time(n%3), fnHandler(func(any) { h.receive(node) }), nil)
	}
	end := s.Run()
	h.runners = len(s.runners)
	s.Stop()
	return h.traces, end
}

// TestShardedEngineDeterministicAcrossShards: every shard count, each
// shard on its own runner, executes the one-engine reference's events at
// the same cycles in the same order: the end-of-cycle flush with plain
// keys and the windowed flush with cycle-tagged keys give one order. A run
// starts one goroutine per engine beyond the coordinator, so one engine
// starts none.
func TestShardedEngineDeterministicAcrossShards(t *testing.T) {
	ref, refEnd := newShardedHarness(8, 1, 4, 20).run()
	total := 0
	for _, tr := range ref {
		total += len(tr)
	}
	if total == 0 {
		t.Fatal("reference run produced no events")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		h := newShardedHarness(8, shards, 4, 20)
		got, end := h.run()
		if h.runners != shards-1 {
			t.Fatalf("shards=%d: started %d runner goroutines, want %d", shards, h.runners, shards-1)
		}
		if end != refEnd {
			t.Fatalf("shards=%d: end %d != %d", shards, end, refEnd)
		}
		for node := range ref {
			if len(got[node]) != len(ref[node]) {
				t.Fatalf("shards=%d: node %d ran %d events, want %d",
					shards, node, len(got[node]), len(ref[node]))
			}
			for i := range ref[node] {
				if got[node][i] != ref[node][i] {
					t.Fatalf("shards=%d: node %d event %d at %s, want %s",
						shards, node, i, got[node][i], ref[node][i])
				}
			}
		}
	}
}

// TestShardedEngineRunUntil: a limited run executes every event at or
// before the limit and none after it, and leaves no send logged: the last
// window ends at the limit and its barrier flushes every send.
func TestShardedEngineRunUntil(t *testing.T) {
	h := newShardedHarness(4, 2, 4, 100)
	s := h.engine()
	for n := range h.nodeOf {
		node := n
		h.engineOf(node).AtHandler(Time(n), fnHandler(func(any) { h.receive(node) }), nil)
	}
	end := s.RunUntil(50)
	s.Stop()
	if end > 50 {
		t.Fatalf("RunUntil(50) executed an event at %d", end)
	}
	for _, e := range h.engines {
		if nt, ok := e.NextEventTime(); ok && nt <= 50 {
			t.Fatalf("event at %d left unexecuted below the limit", nt)
		}
	}
	if n := h.held(); n != 0 {
		t.Fatalf("%d sends still logged after the run", n)
	}
}

// TestShardedEngineRunUntilResume: splitting a run at arbitrary RunUntil
// boundaries must not change the executed event sequence — each chunk's
// last barrier flushes its sends in the same canonical order.
func TestShardedEngineRunUntilResume(t *testing.T) {
	ref, refEnd := newShardedHarness(8, 4, 4, 20).run()
	h := newShardedHarness(8, 4, 4, 20)
	s := h.engine()
	for n := range h.nodeOf {
		node := n
		h.engineOf(node).AtHandler(Time(n%3), fnHandler(func(any) { h.receive(node) }), nil)
	}
	for limit := Time(10); ; limit += 10 {
		if end := s.RunUntil(limit); end >= refEnd {
			break
		}
	}
	end := s.Run()
	s.Stop()
	if end != refEnd {
		t.Fatalf("chunked end %d != %d", end, refEnd)
	}
	for node := range ref {
		if fmt.Sprint(h.traces[node]) != fmt.Sprint(ref[node]) {
			t.Fatalf("node %d trace %v != %v", node, h.traces[node], ref[node])
		}
	}
}

func TestShardedEngineWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window width 0 did not panic")
		}
	}()
	NewShardedEngine([]*Engine{New()}, 0, func(Time, []Time) {})
}

// TestShardedEngineStopRestart: the worker pool must survive
// Stop → Run → Stop cycles, with each restarted run producing the same
// results as an uninterrupted one.
func TestShardedEngineStopRestart(t *testing.T) {
	ref, refEnd := newShardedHarness(8, 4, 4, 30).run()
	h := newShardedHarness(8, 4, 4, 30)
	s := h.engine()
	for n := range h.nodeOf {
		node := n
		h.engineOf(node).AtHandler(Time(n%3), fnHandler(func(any) { h.receive(node) }), nil)
	}
	var end Time
	for limit := Time(25); ; limit += 25 {
		end = s.RunUntil(limit)
		s.Stop() // park and tear down the pool mid-simulation
		s.Stop() // second Stop must be a harmless no-op
		if end >= refEnd {
			break
		}
	}
	end = s.Run() // run after Stop restarts the pool
	s.Stop()
	if end != refEnd {
		t.Fatalf("stop/restart end %d != %d", end, refEnd)
	}
	for node := range ref {
		if fmt.Sprint(h.traces[node]) != fmt.Sprint(ref[node]) {
			t.Fatalf("node %d trace %v != %v", node, h.traces[node], ref[node])
		}
	}
}

// TestShardedEngineStaleWakeToken: a spurious token in a parked runner's wake
// channel must not make it execute a window — the epoch word, not the wake,
// gates execution. The runner must then still run its engine exactly once per
// real dispatch.
func TestShardedEngineStaleWakeToken(t *testing.T) {
	engines := []*Engine{New(), New()}
	for _, e := range engines {
		e.SetCycleSeq(true)
	}
	var ran [2]int
	s := NewShardedEngine(engines, 1, func(Time, []Time) {})
	defer s.Stop()
	engines[0].AtHandler(0, fnHandler(func(any) { ran[0]++ }), nil)
	engines[1].AtHandler(0, fnHandler(func(any) { ran[1]++ }), nil)
	s.Run()
	if ran[0] != 1 || ran[1] != 1 {
		t.Fatalf("first run executed %v, want one event per shard", ran)
	}
	// The pool is idle; runner 1 is spinning toward its park point. Inject a
	// stale token so its next park consumes a wake that carries no epoch.
	if len(s.runners) != 1 {
		t.Fatalf("expected 1 background runner, have %d", len(s.runners))
	}
	s.runners[0].wake <- struct{}{}
	// Give each engine several events across distinct windows; each dispatch
	// must run every engine exactly once despite the stale token.
	for i := 0; i < 4; i++ {
		engines[0].AtHandler(Time(10+i*10), fnHandler(func(any) { ran[0]++ }), nil)
		engines[1].AtHandler(Time(10+i*10), fnHandler(func(any) { ran[1]++ }), nil)
	}
	s.Run()
	if ran[0] != 5 || ran[1] != 5 {
		t.Fatalf("after stale token: executed %v, want 5 per shard", ran)
	}
}
