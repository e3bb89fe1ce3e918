package coherence

import (
	"strings"
	"testing"

	"limitless/internal/cache"
	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/mesh"
	"limitless/internal/protocol"
	"limitless/internal/sim"
)

// TestTablesExhaustive is the static proof the acceptance criteria ask for:
// every (state, meta, message) triple of every registered scheme is either
// handled by a table row or explicitly declared impossible, no row is
// shadowed into unreachability, and no impossibility declaration is dead.
func TestTablesExhaustive(t *testing.T) {
	for _, p := range CheckTables() {
		t.Errorf("%s: %s %s: %s", p.Table, p.Kind, p.Where, p.Detail)
	}
}

// TestPolicyRegistryComplete ties the scheme registry to the policy
// modules: every registered scheme resolves by name, owns a policy, and
// its tables carry the registry name.
func TestPolicyRegistryComplete(t *testing.T) {
	for _, info := range protocol.Schemes() {
		got, ok := protocol.ByName(info.Name)
		if !ok || got.ID != info.ID {
			t.Errorf("ByName(%q) = %+v, %v; want ID %v", info.Name, got, ok, info.ID)
		}
		p := policyFor(info.ID)
		if p == nil {
			t.Errorf("scheme %v has no policy module", info.ID)
			continue
		}
		if name := p.mem.Spec().Name; name != info.Name+"/memory" {
			t.Errorf("scheme %v memory table named %q", info.ID, name)
		}
		if name := p.cache.Spec().Name; name != info.Name+"/cache" {
			t.Errorf("scheme %v cache table named %q", info.ID, name)
		}
	}
}

// violationRig builds a bare controller pair on a 1x1 mesh, enough to
// drive dispatch-violation paths directly.
func violationRig(scheme Scheme) (*MemoryController, *CacheController) {
	eng := sim.New()
	port := mesh.New(mesh.DefaultConfig(1, 1)).Bind(eng, 1)
	p := DefaultParams(1)
	p.Scheme = scheme
	mc := NewMemoryController(eng, port, 0, p, nil)
	cc := NewCacheController(eng, port, 0, p, cache.New(cache.Config{Lines: 8}))
	return mc, cc
}

// TestMemDispatchViolationRecorded sends a message the table declares
// impossible (ACKC against a stable Read-Only entry) and checks it
// surfaces as a structured fault.Violation carrying the table's own
// description of the state and the declared reason.
func TestMemDispatchViolationRecorded(t *testing.T) {
	mc, _ := violationRig(FullMap)
	rec := &fault.Recorder{}
	mc.SetRecorder(rec)
	addr := directory.Addr(0x40)
	mc.entry(addr) // fresh entry: Read-Only, Normal
	mc.process(0, &Msg{Type: ACKC, Addr: addr})
	vs := rec.Violations()
	if len(vs) != 1 {
		t.Fatalf("recorded %d violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Kind != "memctrl-dispatch" {
		t.Errorf("Kind = %q, want memctrl-dispatch", v.Kind)
	}
	if !strings.Contains(v.State, directory.ReadOnly.String()) {
		t.Errorf("State %q does not name the directory state", v.State)
	}
	if !strings.Contains(v.Msg, "declared impossible") {
		t.Errorf("Msg %q does not carry the declared reason", v.Msg)
	}
}

// TestCacheDispatchViolationRecorded does the cache-side twin: WDATA with
// no outstanding write transaction is declared impossible.
func TestCacheDispatchViolationRecorded(t *testing.T) {
	_, cc := violationRig(FullMap)
	rec := &fault.Recorder{}
	cc.SetRecorder(rec)
	cc.HandleMem(0, &Msg{Type: WDATA, Addr: 0x40, Next: -1})
	vs := rec.Violations()
	if len(vs) != 1 {
		t.Fatalf("recorded %d violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Kind != "cachectrl-dispatch" {
		t.Errorf("Kind = %q, want cachectrl-dispatch", v.Kind)
	}
	if !strings.Contains(v.Msg, "declared impossible") {
		t.Errorf("Msg %q does not carry the declared reason", v.Msg)
	}
}

// TestDispatchViolationPanicsWithoutRecorder: in a fault-free
// deterministic run an unhandled transition is a protocol bug and must
// fail loudly, naming the table and the offending triple.
func TestDispatchViolationPanicsWithoutRecorder(t *testing.T) {
	mc, _ := violationRig(FullMap)
	addr := directory.Addr(0x40)
	mc.entry(addr)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("dispatch violation without a recorder did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "full-map/memory") {
			t.Errorf("panic %v does not name the table", r)
		}
	}()
	mc.process(0, &Msg{Type: ACKC, Addr: addr})
}

// TestCoverageCountersTrackDispatch: the runtime recorder counts exactly
// the rows a dispatch walks through.
func TestCoverageCountersTrackDispatch(t *testing.T) {
	SetTableCoverage(true)
	ResetTableCoverage()
	defer SetTableCoverage(false)
	mc, _ := violationRig(FullMap)
	addr := directory.Addr(0x80)
	mc.entry(addr)
	mc.process(0, &Msg{Type: RREQ, Addr: addr}) // ro-rreq-grant
	var hits int
	for _, rc := range TableCoverage() {
		if rc.Count == 0 {
			continue
		}
		hits++
		if rc.Table != "full-map/memory" || rc.Row != "ro-rreq-grant" || rc.Count != 1 {
			t.Errorf("unexpected coverage %+v", rc)
		}
	}
	if hits != 1 {
		t.Errorf("coverage recorded %d rows, want 1", hits)
	}
}
