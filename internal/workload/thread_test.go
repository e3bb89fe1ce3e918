package workload

import (
	"testing"

	"limitless/internal/proc"
)

// drive pulls ops from a thread, resolving each with the supplied resolver
// (which plays the memory system's role).
func drive(t *testing.T, th *Thread, resolve func(op proc.Op) uint64, max int) []proc.Op {
	t.Helper()
	var ops []proc.Op
	prev := uint64(0)
	for i := 0; i < max; i++ {
		op, ok := th.Next(prev)
		if !ok {
			return ops
		}
		ops = append(ops, op)
		prev = resolve(op)
	}
	t.Fatalf("thread did not finish within %d ops", max)
	return nil
}

func TestThreadSequencing(t *testing.T) {
	var trace []string
	th := NewThread(func(t *Thread) {
		t.Store(0x10, 5, func(v uint64, t *Thread) {
			trace = append(trace, "stored")
			t.Load(0x10, func(v uint64, t *Thread) {
				trace = append(trace, "loaded")
				t.Compute(3, func(_ uint64, t *Thread) {
					trace = append(trace, "computed")
				})
			})
		})
	})
	mem := map[uint64]uint64{}
	ops := drive(t, th, func(op proc.Op) uint64 {
		switch op.Kind {
		case proc.OpStore:
			mem[uint64(op.Addr)] = op.Value
			return op.Value
		case proc.OpLoad:
			return mem[uint64(op.Addr)]
		}
		return 0
	}, 10)
	if len(ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(ops))
	}
	want := []string{"stored", "loaded", "computed"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v", trace)
		}
	}
}

func TestThreadLoadValueFlows(t *testing.T) {
	var got uint64
	th := NewThread(func(t *Thread) {
		t.Load(0x20, func(v uint64, t *Thread) { got = v })
	})
	drive(t, th, func(proc.Op) uint64 { return 77 }, 5)
	if got != 77 {
		t.Fatalf("load continuation got %d", got)
	}
}

// TestThreadSpinUntilPolls pins the spin-wait contract: SpinUntil hands
// the processor one shared OpLoad carrying the predicate as Until and the
// backoff as Cycles, and the continuation runs once, with the value that
// satisfied the predicate.
func TestThreadSpinUntilPolls(t *testing.T) {
	var got []uint64
	th := NewThread(func(t *Thread) {
		t.SpinUntil(0x30, func(v uint64) bool { return v >= 3 }, 7,
			func(v uint64, t *Thread) { got = append(got, v) })
	})
	ops := drive(t, th, func(op proc.Op) uint64 {
		// Play the processor's poll loop over the values 1, 2, 3, …:
		// satisfied on the third poll.
		v := uint64(1)
		for !op.Until(v) {
			v++
		}
		return v
	}, 5)
	if len(ops) != 1 {
		t.Fatalf("ops = %d (%v), want one spin load", len(ops), ops)
	}
	op := ops[0]
	if op.Kind != proc.OpLoad || op.Addr != 0x30 || !op.Shared || op.Cycles != 7 || op.Until == nil {
		t.Fatalf("spin op = %+v, want a shared load of 0x30 with Until and a 7-cycle backoff", op)
	}
	if op.Until(2) || !op.Until(3) {
		t.Fatal("Until is not the SpinUntil predicate")
	}
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("continuation saw %v, want [3]", got)
	}
}

func TestThreadFetchAddOp(t *testing.T) {
	var old uint64
	th := NewThread(func(t *Thread) {
		t.FetchAdd(0x40, 5, func(v uint64, t *Thread) { old = v })
	})
	ops := drive(t, th, func(op proc.Op) uint64 {
		if op.Kind != proc.OpRMW {
			t.Fatalf("kind = %v", op.Kind)
		}
		if got := op.Modify(10); got != 15 {
			t.Fatalf("Modify(10) = %d", got)
		}
		return 10 // the old value
	}, 5)
	if len(ops) != 1 || old != 10 {
		t.Fatalf("ops=%d old=%d", len(ops), old)
	}
}

func TestThreadPrivateOps(t *testing.T) {
	th := NewThread(func(t *Thread) {
		t.LoadPrivate(0x50, func(_ uint64, t *Thread) {
			t.StorePrivate(0x51, 1, func(_ uint64, t *Thread) {})
		})
	})
	ops := drive(t, th, func(proc.Op) uint64 { return 0 }, 5)
	for _, op := range ops {
		if op.Shared {
			t.Fatalf("private op marked shared: %+v", op)
		}
	}
}

func TestLoopZeroIterations(t *testing.T) {
	ran := false
	after := false
	th := NewThread(func(t *Thread) {
		Loop(t, 0, func(int, *Thread, func(*Thread)) { ran = true },
			func(*Thread) { after = true })
	})
	drive(t, th, func(proc.Op) uint64 { return 0 }, 5)
	if ran {
		t.Fatal("zero-iteration loop ran its body")
	}
	if !after {
		t.Fatal("continuation skipped")
	}
}

func TestThreadFinishes(t *testing.T) {
	th := NewThread(func(t *Thread) {})
	if _, ok := th.Next(0); ok {
		t.Fatal("empty thread returned an op")
	}
}
