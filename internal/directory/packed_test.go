package directory

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"limitless/internal/fault"
	"limitless/internal/mesh"
)

// refSet is the reference model of a sharer set: membership in a map,
// arrival order in a list, and the limited pointer array's capacity rule
// (Add of a non-member is refused at capacity; a negative max is
// unbounded).
type refSet struct {
	max   int
	in    map[mesh.NodeID]bool
	order []mesh.NodeID
}

func newRefSet(max int) *refSet { return &refSet{max: max, in: map[mesh.NodeID]bool{}} }

func (r *refSet) add(n mesh.NodeID) bool {
	if r.in[n] {
		return true
	}
	if r.max >= 0 && len(r.order) >= r.max {
		return false
	}
	r.in[n] = true
	r.order = append(r.order, n)
	return true
}

func (r *refSet) remove(n mesh.NodeID) bool {
	if !r.in[n] {
		return false
	}
	delete(r.in, n)
	i := slices.Index(r.order, n)
	r.order = slices.Delete(r.order, i, i+1)
	return true
}

func (r *refSet) clear() {
	clear(r.in)
	r.order = r.order[:0]
}

// diff compares s with the reference in every observable — Len, Cap, the
// ascending Nodes walk and, for bounded sets, arrival order and the FIFO
// victim — and returns the first difference, or "" when they agree.
func (r *refSet) diff(s *SharerSet) string {
	if s.Len() != len(r.order) {
		return fmt.Sprintf("Len %d, reference %d", s.Len(), len(r.order))
	}
	if s.Cap() != r.max {
		return fmt.Sprintf("Cap %d, reference %d", s.Cap(), r.max)
	}
	sorted := slices.Sorted(slices.Values(r.order))
	if got := s.Nodes(); !slices.Equal(got, sorted) {
		return fmt.Sprintf("Nodes %v, reference %v", got, sorted)
	}
	if r.max < 0 {
		return "" // full-map spill keeps no arrival order
	}
	if got := s.InOrder(); !slices.Equal(got, r.order) {
		return fmt.Sprintf("InOrder %v, reference %v", got, r.order)
	}
	if len(r.order) > 0 && s.Oldest() != r.order[0] {
		return fmt.Sprintf("Oldest %d, reference %d", s.Oldest(), r.order[0])
	}
	return ""
}

// Property: a packed SharerSet behaves exactly like the reference set for
// any operation sequence, across the inline/spilled boundary in both
// directions (Clear unspills, so the sequence add×5 / clear / add×5
// exercises spill → unspill → re-spill).
func TestSharerSetMatchesReferenceSet(t *testing.T) {
	type op struct {
		Kind byte
		Node uint8
	}
	for _, tc := range []struct {
		name  string
		nodes int
		max   int
	}{
		{"fullmap-64", 64, -1},
		{"fullmap-1024", 1024, -1},
		{"limited-4", 64, 4},
		{"limited-8", 64, 8}, // bounded past the inline capacity: 16-bit lane spill
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sp := NewSpace(tc.nodes)
			prop := func(ops []op) bool {
				s := sp.NewSet(tc.max)
				defer s.Release()
				ref := newRefSet(tc.max)
				for _, o := range ops {
					n := mesh.NodeID(int(o.Node) % tc.nodes)
					switch o.Kind % 5 {
					case 0:
						if s.Add(n) != ref.add(n) {
							return false
						}
					case 1:
						if s.Remove(n) != ref.remove(n) {
							return false
						}
					case 2:
						if s.Contains(n) != ref.in[n] {
							return false
						}
					case 3:
						if d := ref.diff(&s); d != "" {
							t.Log(d)
							return false
						}
					case 4:
						s.Clear()
						ref.clear()
					}
				}
				if d := ref.diff(&s); d != "" {
					t.Log(d)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Nodes must come back ascending in every representation (inline,
// lane-spilled, bit-spilled), across the 64-bit words of a bit vector.
func TestSharerSetNodesSorted(t *testing.T) {
	sp := NewSpace(128)
	for _, max := range []int{-1, 6} {
		s := sp.NewSet(max)
		for _, n := range []mesh.NodeID{77, 3, 120, 41, 9, 55} {
			s.Add(n)
		}
		nodes := s.Nodes()
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1] >= nodes[i] {
				t.Fatalf("max=%d: Nodes() not ascending: %v", max, nodes)
			}
		}
		if max > 0 {
			want := []mesh.NodeID{77, 3, 120, 41, 9, 55}
			got := s.InOrder()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("max=%d: InOrder() = %v, want arrival order %v", max, got, want)
				}
			}
			if s.Oldest() != 77 {
				t.Fatalf("Oldest() = %d, want 77", s.Oldest())
			}
		}
		s.Release()
	}
	wide := NewSpace(130).NewSet(-1)
	for _, n := range []mesh.NodeID{129, 64, 0, 127, 63, 128} {
		wide.Add(n)
	}
	if got := fmt.Sprint(wide.Nodes()); got != "[0 63 64 127 128 129]" {
		t.Fatalf("three-word bit vector: Nodes() = %s, want [0 63 64 127 128 129]", got)
	}
}

// Clear on a spilled set must return its words to the space; Release on a
// software vector likewise. The arena's live count is the invariant.
func TestSpaceReclaimsSpillWords(t *testing.T) {
	sp := NewSpace(1024)
	if sp.Bytes() != 0 {
		t.Fatalf("fresh space measures %d bytes", sp.Bytes())
	}
	s := sp.NewSet(-1)
	for n := 0; n < 32; n++ {
		s.Add(mesh.NodeID(n))
	}
	if sp.Bytes() == 0 {
		t.Fatal("spilled set holds no arena words")
	}
	s.Clear()
	if sp.Bytes() != 0 {
		t.Fatalf("Clear left %d bytes live", sp.Bytes())
	}
	// The freed words must be recycled, not leaked: a second spill of the
	// same shape reuses them.
	for n := 0; n < 32; n++ {
		s.Add(mesh.NodeID(n))
	}
	grown := sp.Bytes()
	s.Release()
	if sp.Bytes() != 0 {
		t.Fatalf("Release left %d bytes live", sp.Bytes())
	}
	v := sp.NewSet(-1)
	for n := 0; n < 32; n++ {
		v.Add(mesh.NodeID(n))
	}
	if sp.Bytes() != grown {
		t.Fatalf("recycled spill measures %d bytes, first spill measured %d", sp.Bytes(), grown)
	}
}

// TestSpaceFootprintP1024 is the unit-level form of the packed storage's
// memory claim at the ROADMAP's target machine size: across a population
// of full-map entries with the paper's worker-set profile (mostly small
// sets, a spilled tail), packed storage must measure at least 4x smaller
// than the boxed sets it replaced. Their footprint is computed from the
// boxed layout: beside the 24-byte header, every entry held a 16-byte
// interface header, a 32-byte vector object and sixteen 64-bit words, so
// even a quarter of entries spilling leaves margin.
func TestSpaceFootprintP1024(t *testing.T) {
	const nodes = 1024
	st := NewStore(NewSpace(nodes), -1)
	for i := 0; i < 1000; i++ {
		e := st.Entry(Addr(uint64(i%64)<<24 | uint64(i)))
		sharers := 2
		if i%10 == 0 {
			sharers = 12 // the spilled tail: wide worker-sets
		}
		for k := 0; k < sharers; k++ {
			e.Ptrs.Add(mesh.NodeID((i + k*37) % nodes))
		}
	}
	packed := st.SetBytes()
	boxed := st.Len() * (SetHeaderBytes + 16 + 32 + 8*nodes/64)
	if ratio := float64(boxed) / float64(packed); ratio < 4 {
		t.Errorf("P=1024 full-map: boxed %d B / packed %d B = %.2fx, want >= 4x", boxed, packed, ratio)
	}
}

// pointerSetOps replays one fuzz-provided op stream against a packed set
// and the reference set of the same shape, failing on the first
// divergence in any observable: Add/Remove return values, Contains, and
// everything refSet.diff compares.
func pointerSetOps(t *testing.T, maxB byte, data []byte) {
	nodes := 64
	max := -1
	if maxB%4 != 0 {
		max = 1 + int(maxB)%9 // 1..9: both inline-only and lane-spilled shapes
	}
	sp := NewSpace(nodes)
	s := sp.NewSet(max)
	ref := newRefSet(max)
	for i := 0; i+1 < len(data); i += 2 {
		n := mesh.NodeID(int(data[i+1]) % nodes)
		switch data[i] % 4 {
		case 0:
			if got, want := s.Add(n), ref.add(n); got != want {
				t.Fatalf("op %d: Add(%d) %v, reference %v", i, n, got, want)
			}
		case 1:
			if got, want := s.Remove(n), ref.remove(n); got != want {
				t.Fatalf("op %d: Remove(%d) %v, reference %v", i, n, got, want)
			}
		case 2:
			if got, want := s.Contains(n), ref.in[n]; got != want {
				t.Fatalf("op %d: Contains(%d) %v, reference %v", i, n, got, want)
			}
		case 3:
			s.Clear()
			ref.clear()
		}
		if d := ref.diff(&s); d != "" {
			t.Fatalf("after op %d: %s", i, d)
		}
	}
	s.Release()
	if sp.Bytes() != 0 {
		t.Fatalf("space leaked %d bytes", sp.Bytes())
	}
}

// FuzzPointerSetEquivalence drives packed sets and the reference set with
// arbitrary op streams over both full-map and bounded shapes.
func FuzzPointerSetEquivalence(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 2, 3, 1, 2, 3, 0})
	f.Add(byte(5), []byte{0, 9, 0, 8, 0, 7, 0, 6, 0, 5, 0, 4, 1, 9, 2, 5})
	f.Add(byte(1), []byte{0, 1, 0, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, maxB byte, data []byte) {
		pointerSetOps(t, maxB, data)
	})
}

// Out-of-range node IDs and malformed-shape walks must flow through an
// installed fault.Recorder as structured violations — the operation
// becomes a benign no-op — and still panic (a protocol bug, not a modeled
// fault) when no recorder is present.
func TestSpaceViolationsThroughRecorder(t *testing.T) {
	// The subtest keeps the name of the packed-word storage every set uses.
	t.Run("packed", func(t *testing.T) {
		sp := NewSpace(16)
		var rec fault.Recorder
		sp.SetRecorder(&rec)

		s := sp.NewSet(4)
		if s.Add(99) {
			t.Error("out-of-range Add reported success")
		}
		if s.Len() != 0 {
			t.Errorf("out-of-range Add mutated the set: len %d", s.Len())
		}
		s.Oldest() // empty bounded set: shape violation, not a panic
		if rec.Len() < 2 {
			t.Fatalf("recorded %d violations, want >= 2 (range + shape)", rec.Len())
		}
		kinds := map[string]bool{}
		for _, v := range rec.Violations() {
			kinds[v.Kind] = true
		}
		if !kinds["directory-range"] || !kinds["directory-shape"] {
			t.Errorf("violation kinds = %v, want directory-range and directory-shape", kinds)
		}

		// Without a recorder the same misuse must panic.
		bare := NewSpace(16).NewSet(4)
		mustPanic(t, "out-of-range Add(99) without a recorder", func() { bare.Add(99) })
		mustPanic(t, "out-of-range Add(-1) without a recorder", func() { bare.Add(-1) })
		mustPanic(t, "Oldest on an empty set without a recorder", func() { bare.Oldest() })
	})
}

// A pointer array needs a capacity of at least one; -1 is the unbounded
// full-map set, and anything past the int16 field is refused too.
func TestNewSetRejectsBadCapacity(t *testing.T) {
	sp := NewSpace(16)
	for _, max := range []int{0, -2, maxBounded + 1} {
		mustPanic(t, fmt.Sprintf("NewSet(%d)", max), func() { sp.NewSet(max) })
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
