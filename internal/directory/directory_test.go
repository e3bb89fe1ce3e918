package directory

import "testing"

func TestStateStrings(t *testing.T) {
	cases := map[State]string{
		ReadOnly:         "Read-Only",
		ReadWrite:        "Read-Write",
		ReadTransaction:  "Read-Transaction",
		WriteTransaction: "Write-Transaction",
		State(99):        "State(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestMetaStrings(t *testing.T) {
	cases := map[Meta]string{
		Normal:          "Normal",
		TransInProgress: "Trans-In-Progress",
		TrapOnWrite:     "Trap-On-Write",
		TrapAlways:      "Trap-Always",
		Meta(42):        "Meta(42)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestEntrySharersCountsLocalBit(t *testing.T) {
	sp := NewSpace(16)
	e := &Entry{State: ReadOnly, Ptrs: sp.NewSet(4)}
	e.Ptrs.Add(1)
	e.Ptrs.Add(2)
	if e.Sharers() != 2 {
		t.Fatalf("sharers = %d, want 2", e.Sharers())
	}
	e.Local = true
	if e.Sharers() != 3 {
		t.Fatalf("sharers with Local = %d, want 3", e.Sharers())
	}
}

func TestStoreCreatesUncachedReadOnly(t *testing.T) {
	s := NewStore(NewSpace(16), 4)
	if _, ok := s.Lookup(0x100); ok {
		t.Fatal("Lookup created an entry")
	}
	e := s.Entry(0x100)
	if e.State != ReadOnly || e.Meta != Normal || e.Ptrs.Len() != 0 {
		t.Fatalf("fresh entry = %+v", e)
	}
	if s.Entry(0x100) != e {
		t.Fatal("Entry not stable across calls")
	}
	if s.Len() != 1 {
		t.Fatalf("store len = %d", s.Len())
	}
}

func TestStoreForEachOrdered(t *testing.T) {
	s := NewStore(NewSpace(4), -1)
	for _, a := range []Addr{0x30, 0x10, 0x20} {
		s.Entry(a)
	}
	var got []Addr
	s.ForEach(func(a Addr, _ *Entry) { got = append(got, a) })
	want := []Addr{0x10, 0x20, 0x30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

// The open-addressing store must keep exact map semantics through growth:
// every entry stays findable, pointers stay stable, and Len tracks count.
func TestStoreGrowthKeepsEntriesStable(t *testing.T) {
	s := NewStore(NewSpace(64), 4)
	const n = 4096 // forces several doublings past the pre-sized table
	ptrs := make(map[Addr]*Entry, n)
	for i := 0; i < n; i++ {
		// Mix dense low indexes with high home bits like coherence.BlockAt.
		a := Addr(uint64(i%64)<<24 | uint64(i))
		e := s.Entry(a)
		e.Value = uint64(i)
		ptrs[a] = e
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for a, want := range ptrs {
		got, ok := s.Lookup(a)
		if !ok || got != want {
			t.Fatalf("entry %#x moved or vanished after growth", a)
		}
		if again := s.Entry(a); again != want {
			t.Fatalf("Entry(%#x) created a duplicate after growth", a)
		}
	}
	if _, ok := s.Lookup(Addr(1 << 40)); ok {
		t.Fatal("Lookup invented an entry")
	}
	seen := 0
	prev := Addr(0)
	first := true
	s.ForEach(func(a Addr, e *Entry) {
		if !first && a <= prev {
			t.Fatalf("ForEach out of order: %#x after %#x", a, prev)
		}
		prev, first = a, false
		if e != ptrs[a] {
			t.Fatalf("ForEach handed a different *Entry for %#x", a)
		}
		seen++
	})
	if seen != n {
		t.Fatalf("ForEach visited %d entries, want %d", seen, n)
	}
}

// Address zero is a valid block (home 0, index 0) and must not be confused
// with an empty slot.
func TestStoreAddrZero(t *testing.T) {
	s := NewStore(NewSpace(16), 2)
	if _, ok := s.Lookup(0); ok {
		t.Fatal("Lookup(0) on empty store")
	}
	e := s.Entry(0)
	e.Value = 7
	got, ok := s.Lookup(0)
	if !ok || got.Value != 7 {
		t.Fatal("entry at address 0 lost")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func BenchmarkStoreEntry(b *testing.B) {
	s := NewStore(NewSpace(64), 4)
	for i := 0; i < 1024; i++ {
		s.Entry(Addr(uint64(i%64)<<24 | uint64(i)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Entry(Addr(uint64(i%64)<<24 | uint64(i%1024)))
	}
}
