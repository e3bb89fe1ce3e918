package cache

import (
	"testing"
	"testing/quick"

	"limitless/internal/directory"
)

func small() *Cache { return New(Config{Lines: 8}) }

func TestLineStateStrings(t *testing.T) {
	cases := map[LineState]string{
		Invalid:       "Invalid",
		ReadOnly:      "Read-Only",
		ReadWrite:     "Read-Write",
		LineState(77): "LineState(77)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestReadMissOnEmpty(t *testing.T) {
	c := small()
	if _, hit := c.Read(0x10); hit {
		t.Fatal("read hit in empty cache")
	}
}

func TestFillThenReadHit(t *testing.T) {
	c := small()
	c.Fill(0x10, ReadOnly, 42)
	v, hit := c.Read(0x10)
	if !hit || v != 42 {
		t.Fatalf("read = (%d,%v), want (42,true)", v, hit)
	}
	if c.State(0x10) != ReadOnly {
		t.Fatalf("state = %v", c.State(0x10))
	}
}

func TestWriteRequiresReadWrite(t *testing.T) {
	c := small()
	c.Fill(0x10, ReadOnly, 1)
	if c.Write(0x10, 2) {
		t.Fatal("write hit on Read-Only line (should be upgrade miss)")
	}
	c.Fill(0x10, ReadWrite, 1)
	if !c.Write(0x10, 2) {
		t.Fatal("write miss on Read-Write line")
	}
	v, _ := c.Read(0x10)
	if v != 2 {
		t.Fatalf("value after write = %d", v)
	}
}

func TestConflictFillReportsVictim(t *testing.T) {
	c := small() // 8 lines: 0x10 and 0x18 conflict
	c.Fill(0x10, ReadWrite, 5)
	c.Write(0x10, 6)
	v, displaced := c.Fill(0x18, ReadOnly, 9)
	if !displaced {
		t.Fatal("conflicting fill reported no victim")
	}
	if v.Addr != 0x10 || v.Value != 6 || !v.Dirty || v.State != ReadWrite {
		t.Fatalf("victim = %+v", v)
	}
	if c.State(0x10) != Invalid {
		t.Fatal("victim still cached")
	}
	if c.State(0x18) != ReadOnly {
		t.Fatal("new block not installed")
	}
}

func TestRefillSameBlockNoVictim(t *testing.T) {
	c := small()
	c.Fill(0x10, ReadOnly, 1)
	if _, displaced := c.Fill(0x10, ReadWrite, 2); displaced {
		t.Fatal("refill of same block displaced a victim")
	}
	if c.State(0x10) != ReadWrite {
		t.Fatal("refill did not upgrade state")
	}
}

func TestCleanVictimNotDirty(t *testing.T) {
	c := small()
	c.Fill(0x10, ReadOnly, 5)
	v, displaced := c.Fill(0x18, ReadOnly, 9)
	if !displaced || v.Dirty {
		t.Fatalf("clean victim = %+v displaced=%v", v, displaced)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	if _, _, present := c.Invalidate(0x10); present {
		t.Fatal("invalidate of absent block reported present")
	}
	c.Fill(0x10, ReadWrite, 3)
	c.Write(0x10, 4)
	v, dirty, present := c.Invalidate(0x10)
	if !present || !dirty || v != 4 {
		t.Fatalf("invalidate = (%d,%v,%v)", v, dirty, present)
	}
	if c.State(0x10) != Invalid {
		t.Fatal("block survived invalidation")
	}
}

func TestUpdate(t *testing.T) {
	c := small()
	if c.Update(0x10, 9) {
		t.Fatal("update of absent block succeeded")
	}
	c.Fill(0x10, ReadOnly, 1)
	if !c.Update(0x10, 9) {
		t.Fatal("update of cached block failed")
	}
	v, _ := c.Read(0x10)
	if v != 9 {
		t.Fatalf("value after update = %d", v)
	}
	if c.State(0x10) != ReadOnly {
		t.Fatal("update changed state")
	}
}

func TestFillInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fill(Invalid) did not panic")
		}
	}()
	small().Fill(0x10, Invalid, 0)
}

func TestOccupancy(t *testing.T) {
	c := small()
	if c.Occupancy() != 0 {
		t.Fatal("occupancy of empty cache != 0")
	}
	c.Fill(0x1, ReadOnly, 0)
	c.Fill(0x2, ReadWrite, 0)
	if c.Occupancy() != 2 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
	c.Invalidate(0x1)
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy after invalidate = %d", c.Occupancy())
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{{Lines: 0}, {Lines: -4}, {Lines: 96}} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: a direct-mapped cache holds at most one block per line index,
// and a Read hit always returns the most recent Fill/Write/Update value
// for that block.
func TestCacheValueProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Addr  uint8
		Value uint16
	}
	prop := func(ops []op) bool {
		c := New(Config{Lines: 4})
		want := make(map[directory.Addr]uint64) // expected value when cached
		for _, o := range ops {
			a := directory.Addr(o.Addr % 16)
			switch o.Kind % 4 {
			case 0: // fill read-only
				v, displaced := c.Fill(a, ReadOnly, uint64(o.Value))
				if displaced {
					delete(want, v.Addr)
				}
				want[a] = uint64(o.Value)
			case 1: // fill read-write
				v, displaced := c.Fill(a, ReadWrite, uint64(o.Value))
				if displaced {
					delete(want, v.Addr)
				}
				want[a] = uint64(o.Value)
			case 2: // write
				if c.Write(a, uint64(o.Value)) {
					want[a] = uint64(o.Value)
				}
			case 3: // read + verify
				v, hit := c.Read(a)
				exp, cached := want[a]
				if hit != cached {
					return false
				}
				if hit && v != exp {
					return false
				}
			}
		}
		return c.Occupancy() <= 4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
