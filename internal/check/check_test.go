package check

import (
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/machine"
	"limitless/internal/workload"
)

func TestObserverAcceptsLegalHistory(t *testing.T) {
	o := NewObserver()
	o.NoteRead(1, 0x10, 0) // initial value
	o.NoteWrite(2, 0x10, 7)
	o.NoteRead(1, 0x10, 7)
	o.NoteWrite(3, 0x10, 9)
	o.NoteRead(1, 0x10, 9)
	o.NoteRead(2, 0x10, 9)
	if v := o.Violations(); len(v) != 0 {
		t.Fatalf("legal history flagged: %v", v)
	}
	r, w := o.Ops()
	if r != 4 || w != 2 {
		t.Fatalf("ops = (%d,%d)", r, w)
	}
}

func TestObserverCatchesPhantomValue(t *testing.T) {
	o := NewObserver()
	o.NoteRead(1, 0x10, 42)
	if len(o.Violations()) != 1 {
		t.Fatal("phantom value not flagged")
	}
}

func TestObserverCatchesStaleRead(t *testing.T) {
	o := NewObserver()
	o.NoteWrite(2, 0x10, 7)
	o.NoteWrite(2, 0x10, 9)
	o.NoteRead(1, 0x10, 9) // node 1 observes write #2
	o.NoteRead(1, 0x10, 7) // ...then regresses to write #1
	if len(o.Violations()) != 1 {
		t.Fatalf("stale read not flagged: %v", o.Violations())
	}
}

func TestObserverTracksAddressesIndependently(t *testing.T) {
	o := NewObserver()
	o.NoteWrite(1, 0x10, 5)
	o.NoteWrite(1, 0x20, 6)
	o.NoteRead(2, 0x10, 5)
	o.NoteRead(2, 0x20, 0) // hasn't seen 6 yet: legal (no prior observation)
	if v := o.Violations(); len(v) != 0 {
		t.Fatalf("independent addresses flagged: %v", v)
	}
}

func TestEndStateOnCleanMachine(t *testing.T) {
	params := coherence.DefaultParams(4)
	m := machine.New(machine.Config{Width: 2, Height: 2, Contexts: 1, Params: params})
	a := coherence.BlockAt(0, 9)
	m.SetWorkload(0, 0, workload.NewThread(func(th *workload.Thread) {
		th.Store(a, 5, func(_ uint64, th *workload.Thread) {})
	}))
	m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
		th.Load(a, func(_ uint64, th *workload.Thread) {})
	}))
	m.Run()
	if bad := EndState(m); len(bad) != 0 {
		t.Fatalf("clean machine flagged: %v", bad)
	}
	if bad := SingleWriter(m); len(bad) != 0 {
		t.Fatalf("single-writer flagged: %v", bad)
	}
}

func TestEndStateDetectsCorruption(t *testing.T) {
	params := coherence.DefaultParams(4)
	m := machine.New(machine.Config{Width: 2, Height: 2, Contexts: 1, Params: params})
	a := coherence.BlockAt(0, 9)
	m.SetWorkload(0, 0, workload.NewThread(func(th *workload.Thread) {
		th.Store(a, 5, func(_ uint64, th *workload.Thread) {})
	}))
	m.Run()
	// Corrupt the directory behind the protocol's back: drop the owner.
	e := m.Nodes[0].MC.Dir().Entry(a)
	e.Ptrs.Clear()
	e.Local = false
	if bad := EndState(m); len(bad) == 0 {
		t.Fatal("corrupted directory not flagged")
	}
}

func TestExploreAllSchemes(t *testing.T) {
	schemes := []struct {
		s    coherence.Scheme
		ptrs int
	}{
		{coherence.FullMap, 0},
		{coherence.LimitedNB, 1},
		{coherence.LimitedNB, 2},
		{coherence.LimitLESS, 1},
		{coherence.LimitLESS, 2},
		{coherence.SoftwareOnly, 1},
		{coherence.Chained, 1},
	}
	for _, sc := range schemes {
		sc := sc
		t.Run(sc.s.String(), func(t *testing.T) {
			cfg := Explore(sc.s, sc.ptrs)
			if testing.Short() {
				cfg.Seeds = 5
			}
			rep := Run(cfg)
			if !rep.Ok() {
				max := len(rep.Violations)
				if max > 5 {
					max = 5
				}
				t.Fatalf("%s; first violations: %v", rep, rep.Violations[:max])
			}
			if rep.Ops == 0 {
				t.Fatal("explorer recorded no operations")
			}
		})
	}
}

func TestExploreLargerMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("3x3 exploration")
	}
	cfg := Explore(coherence.LimitLESS, 2)
	cfg.Width, cfg.Height = 3, 3
	cfg.Seeds = 10
	cfg.Blocks = 4
	rep := Run(cfg)
	if !rep.Ok() {
		max := len(rep.Violations)
		if max > 5 {
			max = 5
		}
		t.Fatalf("%s; first: %v", rep, rep.Violations[:max])
	}
}
