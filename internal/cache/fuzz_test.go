package cache

import (
	"math/rand"
	"testing"

	"limitless/internal/directory"
)

// flatCache is the reference model for the paged cache: one line per
// index, held flat and allocated up front.
type flatCache struct {
	lines []line
}

func newFlat(cfg Config) *flatCache {
	return &flatCache{lines: make([]line, cfg.Lines)}
}

func (f *flatCache) line(addr directory.Addr) *line {
	return &f.lines[int(addr)%len(f.lines)]
}

func (f *flatCache) slot(addr directory.Addr) *line {
	if l := f.line(addr); l.state != Invalid && l.tag == addr {
		return l
	}
	return nil
}

func (f *flatCache) State(addr directory.Addr) LineState {
	if l := f.slot(addr); l != nil {
		return l.state
	}
	return Invalid
}

func (f *flatCache) Read(addr directory.Addr) (uint64, bool) {
	l := f.slot(addr)
	if l == nil {
		return 0, false
	}
	return l.value, true
}

func (f *flatCache) Write(addr directory.Addr, value uint64) bool {
	l := f.slot(addr)
	if l == nil || l.state != ReadWrite {
		return false
	}
	l.value = value
	l.dirty = true
	return true
}

func (f *flatCache) Fill(addr directory.Addr, state LineState, value uint64) (v Victim, displaced bool) {
	l := f.line(addr)
	if l.state != Invalid && l.tag != addr {
		v = Victim{Addr: l.tag, State: l.state, Value: l.value, Dirty: l.dirty}
		displaced = true
	}
	*l = line{tag: addr, state: state, value: value}
	return v, displaced
}

func (f *flatCache) Invalidate(addr directory.Addr) (uint64, bool, bool) {
	l := f.slot(addr)
	if l == nil {
		return 0, false, false
	}
	value, dirty := l.value, l.dirty
	*l = line{}
	return value, dirty, true
}

func (f *flatCache) Update(addr directory.Addr, value uint64) bool {
	l := f.slot(addr)
	if l == nil {
		return false
	}
	l.value = value
	return true
}

func (f *flatCache) Occupancy() int {
	n := 0
	for _, l := range f.lines {
		if l.state != Invalid {
			n++
		}
	}
	return n
}

// equivGeometries are the fuzzed cache shapes: below one page, one page,
// and several pages.
var equivGeometries = []Config{
	{Lines: 8},
	{Lines: 64},
	{Lines: 256},
}

// FuzzCacheEquivalence drives one op stream through the paged cache and the
// flat reference model and demands identical return values and victims
// after every operation, and State and Read of the touched block. The
// first byte picks the geometry; each op is four bytes: kind (kinds 5 and
// 7 do nothing), a two-byte address over four times the line count (so
// lines conflict), and a value. The paged cache is released at the end, so
// later inputs run on recycled pages.
func FuzzCacheEquivalence(f *testing.F) {
	f.Add([]byte{2, 2, 0, 0, 5, 1, 0, 0, 6, 0, 1, 0, 7, 4, 0, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for g := range 2 * len(equivGeometries) {
		seed := make([]byte, 1+4*400)
		rng.Read(seed)
		seed[0] = byte(g % len(equivGeometries))
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := equivGeometries[int(data[0])%len(equivGeometries)]
		c, ref := New(cfg), newFlat(cfg)
		defer c.Release()
		for i := 1; i+3 < len(data); i += 4 {
			op := i / 4
			addr := directory.Addr((int(data[i+1]) | int(data[i+2])<<8) % (4 * cfg.Lines))
			val := uint64(data[i+3])
			switch data[i] % 8 {
			case 0:
				v, hit := c.Read(addr)
				rv, rhit := ref.Read(addr)
				if v != rv || hit != rhit {
					t.Fatalf("op %d Read(%#x) = (%d,%v), reference (%d,%v)", op, addr, v, hit, rv, rhit)
				}
			case 1:
				if hit, rhit := c.Write(addr, val), ref.Write(addr, val); hit != rhit {
					t.Fatalf("op %d Write(%#x) = %v, reference %v", op, addr, hit, rhit)
				}
			case 2, 3:
				st := ReadOnly
				if data[i]%8 == 3 {
					st = ReadWrite
				}
				v, d := c.Fill(addr, st, val)
				rv, rd := ref.Fill(addr, st, val)
				if v != rv || d != rd {
					t.Fatalf("op %d Fill(%#x, %v) = (%+v,%v), reference (%+v,%v)", op, addr, st, v, d, rv, rd)
				}
			case 4:
				v, d, p := c.Invalidate(addr)
				rv, rd, rp := ref.Invalidate(addr)
				if v != rv || d != rd || p != rp {
					t.Fatalf("op %d Invalidate(%#x) = (%d,%v,%v), reference (%d,%v,%v)", op, addr, v, d, p, rv, rd, rp)
				}
			case 6:
				if ok, rok := c.Update(addr, val), ref.Update(addr, val); ok != rok {
					t.Fatalf("op %d Update(%#x) = %v, reference %v", op, addr, ok, rok)
				}
			}
			if st, rst := c.State(addr), ref.State(addr); st != rst {
				t.Fatalf("op %d State(%#x) = %v, reference %v", op, addr, st, rst)
			}
			v, ok := c.Read(addr)
			rv, rok := ref.Read(addr)
			if v != rv || ok != rok {
				t.Fatalf("op %d Read(%#x) = (%d,%v), reference (%d,%v)", op, addr, v, ok, rv, rok)
			}
		}
		if n, rn := c.Occupancy(), ref.Occupancy(); n != rn {
			t.Fatalf("Occupancy = %d, reference %d", n, rn)
		}
	})
}
