package protocol

import (
	"strings"
	"testing"
)

type tctx struct {
	fired []string
	flag  bool
}

func spec2x2() Spec {
	return Spec{
		Name:   "test/table",
		States: []string{"A", "B"},
		Metas:  []string{"M0", "M1"},
		Msgs:   []MsgDef{{Val: 10, Name: "X"}, {Val: 11, Name: "Y"}},
	}
}

func fire(id string) func(*tctx) {
	return func(c *tctx) { c.fired = append(c.fired, id) }
}

func TestDispatchDeclarationOrderAndGuards(t *testing.T) {
	tbl := New(spec2x2(), []Row[tctx]{
		{State: 0, Meta: Any, Msg: 10, ID: "guarded", Guard: func(c *tctx) bool { return c.flag }, Action: fire("guarded")},
		{State: 0, Meta: Any, Msg: 10, ID: "fallback", Action: fire("fallback")},
		{State: Any, Meta: Any, Msg: 11, ID: "wild-y", Action: fire("wild-y")},
		{State: 1, Meta: 0, Msg: 10, ID: "b-x", Action: fire("b-x")},
		{State: 1, Meta: 1, Msg: 10, ID: "b-x-m1-absorb", Guard: func(c *tctx) bool { return c.flag }},
		{State: 1, Meta: 1, Msg: 10, ID: "b-x-m1", Action: fire("b-x-m1")},
	}, nil)

	c := &tctx{}
	if v := tbl.Dispatch(0, 0, 10, c); v != Matched || c.fired[len(c.fired)-1] != "fallback" {
		t.Fatalf("guard refused but got %v fired=%v", v, c.fired)
	}
	c.flag = true
	if v := tbl.Dispatch(0, 1, 10, c); v != Matched || c.fired[len(c.fired)-1] != "guarded" {
		t.Fatalf("guard accepted but got %v fired=%v", v, c.fired)
	}
	if v := tbl.Dispatch(1, 1, 11, c); v != Matched || c.fired[len(c.fired)-1] != "wild-y" {
		t.Fatalf("wildcard row: %v fired=%v", v, c.fired)
	}
	if v := tbl.Dispatch(1, 0, 10, c); v != Matched || c.fired[len(c.fired)-1] != "b-x" {
		t.Fatalf("meta-specific row: %v fired=%v", v, c.fired)
	}
	// A row without an action absorbs the message: Matched, nothing fired.
	n := len(c.fired)
	if v := tbl.Dispatch(1, 1, 10, c); v != Matched || len(c.fired) != n {
		t.Fatalf("absorbing row: %v fired=%v", v, c.fired)
	}
	c.flag = false
	if v := tbl.Dispatch(1, 1, 10, c); v != Matched || c.fired[len(c.fired)-1] != "b-x-m1" {
		t.Fatalf("refused absorb falls through: %v fired=%v", v, c.fired)
	}
	// Out-of-spec message and out-of-range state or meta are NoRow, not a
	// panic.
	if v := tbl.Dispatch(0, 0, 99, c); v != NoRow {
		t.Fatalf("unknown message: %v", v)
	}
	if v := tbl.Dispatch(7, 0, 10, c); v != NoRow {
		t.Fatalf("unknown state: %v", v)
	}
	if v := tbl.Dispatch(0, 7, 10, c); v != NoRow {
		t.Fatalf("unknown meta: %v", v)
	}
}

func TestDispatchImpossibleVerdict(t *testing.T) {
	tbl := New(spec2x2(), []Row[tctx]{
		{State: Any, Meta: Any, Msg: 10, ID: "x", Action: fire("x")},
		{State: 0, Meta: Any, Msg: 11, ID: "a-y-guarded", Guard: func(c *tctx) bool { return c.flag }, Action: fire("a-y-guarded")},
	}, []Impossible{
		{State: Any, Meta: Any, Msg: 11, Reason: "Y cannot arrive here"},
	})
	c := &tctx{}
	if v := tbl.Dispatch(1, 0, 11, c); v != VerdictImpossible {
		t.Fatalf("declared-impossible triple: %v", v)
	}
	// A guard that refuses falls through to the declaration.
	if v := tbl.Dispatch(0, 0, 11, c); v != VerdictImpossible {
		t.Fatalf("guard fall-through: %v", v)
	}
	if r := tbl.Reason(1, 0, 11); r != "Y cannot arrive here" {
		t.Fatalf("Reason = %q", r)
	}
	if d := tbl.Describe(1, 0, 11); d != "B/M0/Y" {
		t.Fatalf("Describe = %q", d)
	}
}

func TestCheckAcceptsExhaustiveTable(t *testing.T) {
	tbl := New(spec2x2(), []Row[tctx]{
		{State: Any, Meta: Any, Msg: 10, ID: "x", Action: fire("x")},
		{State: 0, Meta: Any, Msg: 11, ID: "a-y", Action: fire("a-y")},
	}, []Impossible{
		{State: 1, Meta: Any, Msg: 11, Reason: "B never sees Y"},
	})
	if probs := tbl.Check(); len(probs) != 0 {
		t.Fatalf("problems: %v", probs)
	}
}

func TestCheckFindsHoles(t *testing.T) {
	tbl := New(spec2x2(), []Row[tctx]{
		// Y in state A is only guarded; Y in state B has nothing at all.
		{State: Any, Meta: Any, Msg: 10, ID: "x", Action: fire("x")},
		{State: 0, Meta: Any, Msg: 11, ID: "a-y", Guard: func(c *tctx) bool { return c.flag }, Action: fire("a-y")},
		// Shadowed everywhere by "x".
		{State: Any, Meta: Any, Msg: 10, ID: "never", Action: fire("never")},
	}, []Impossible{
		// Dead: "x" settles every X triple unconditionally.
		{State: Any, Meta: Any, Msg: 10, Reason: "dead"},
	})
	probs := tbl.Check()
	want := map[string]bool{"guard-gap": false, "unhandled": false, "unreachable-row": false, "dead-impossible": false}
	for _, p := range probs {
		if _, ok := want[p.Kind]; ok {
			want[p.Kind] = true
		}
	}
	for kind, seen := range want {
		if !seen {
			t.Errorf("checker missed a %s defect; got %v", kind, probs)
		}
	}
}

func TestCoverageCounters(t *testing.T) {
	tbl := New(spec2x2(), []Row[tctx]{
		{State: Any, Meta: Any, Msg: 10, ID: "x", Action: fire("x")},
		{State: 1, Meta: Any, Msg: 11, ID: "absorb"},
		{State: Any, Meta: Any, Msg: 11, ID: "y", Action: fire("y")},
	}, nil)
	c := &tctx{}
	tbl.Dispatch(0, 0, 10, c) // not counted: coverage off
	tbl.SetCoverage(true)
	tbl.Dispatch(0, 0, 10, c)
	tbl.Dispatch(1, 1, 10, c)
	tbl.Dispatch(1, 0, 11, c) // absorbed: counted though no action runs
	tbl.Dispatch(0, 7, 10, c) // out-of-range meta: NoRow, counted nowhere
	cov := tbl.Coverage()
	if cov[0].Count != 2 || cov[1].Count != 1 || cov[2].Count != 0 {
		t.Fatalf("coverage = %+v", cov)
	}
	if len(c.fired) != 3 {
		t.Fatalf("fired = %v, want three x", c.fired)
	}
	if cov[0].Table != "test/table" || cov[0].Row != "x" || cov[0].Keys != "*/*/X" {
		t.Fatalf("coverage identity = %+v", cov[0])
	}
	tbl.ResetCoverage()
	if cov := tbl.Coverage(); cov[0].Count != 0 {
		t.Fatalf("reset failed: %+v", cov)
	}
}

func TestSchemeRegistry(t *testing.T) {
	schemes := Schemes()
	if len(schemes) != NumSchemes {
		t.Fatalf("Schemes() returned %d entries", len(schemes))
	}
	names := map[string]bool{}
	for i, info := range schemes {
		if int(info.ID) != i {
			t.Errorf("scheme %q has ID %d at index %d", info.Name, info.ID, i)
		}
		if info.Name == "" || info.Doc == "" {
			t.Errorf("scheme %d lacks a name or doc: %+v", i, info)
		}
		if names[info.Name] {
			t.Errorf("duplicate scheme name %q", info.Name)
		}
		names[info.Name] = true
		byName, ok := ByName(info.Name)
		if !ok || byName.ID != info.ID {
			t.Errorf("ByName(%q) = %+v, %v", info.Name, byName, ok)
		}
		if got := info.ID.String(); got != info.Name {
			t.Errorf("String() = %q, want %q", got, info.Name)
		}
		if info.NeedsPointers && info.DefaultPointers < 1 {
			t.Errorf("scheme %q needs pointers but has no default", info.Name)
		}
	}
	if _, ok := ByName("no-such-scheme"); ok {
		t.Error("ByName accepted an unknown name")
	}
	if s := SchemeID(200).String(); !strings.Contains(s, "200") {
		t.Errorf("out-of-range String() = %q", s)
	}
}
