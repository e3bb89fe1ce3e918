// Package cache models each Alewife node's processor cache: 64K bytes,
// direct-mapped, 16-byte blocks (Section 2). The cache holds the
// cache-side protocol states of Table 1 — Invalid, Read-Only, Read-Write —
// plus per-line data, and reports replacement victims so the cache
// controller can issue REPM (replace-modified) messages for dirty lines.
// Set-associative geometries (LRU replacement) are supported for
// ablations; Alewife itself is direct-mapped.
//
// Block data is modelled as a single version word; see the directory
// package for why that suffices for consistency checking.
package cache

import (
	"fmt"
	"sync"

	"limitless/internal/directory"
)

// LineState is a cache-side protocol state (paper Table 1).
type LineState uint8

const (
	// Invalid: cache block may not be read or written.
	Invalid LineState = iota
	// ReadOnly: cache block may be read, but not written.
	ReadOnly
	// ReadWrite: cache block may be read or written.
	ReadWrite
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case ReadOnly:
		return "Read-Only"
	case ReadWrite:
		return "Read-Write"
	default:
		return fmt.Sprintf("LineState(%d)", uint8(s))
	}
}

// Config describes cache geometry in block-granularity terms.
type Config struct {
	// Lines is the total number of lines. The Alewife cache is 64 KB of
	// 16-byte blocks: 4096 lines.
	Lines int
	// Ways is the set associativity (0 or 1 = direct-mapped, Alewife's
	// geometry). Lines must be divisible by Ways. Replacement within a
	// set is LRU.
	Ways int
	// BlockWords is the number of data words per block (4 in Alewife:
	// 16 bytes of 4-byte words). Used for packet sizing, not storage.
	BlockWords int
}

// DefaultConfig returns the Alewife cache geometry.
func DefaultConfig() Config { return Config{Lines: 4096, BlockWords: 4} }

// Victim describes a block displaced by a conflicting fill.
type Victim struct {
	Addr  directory.Addr
	State LineState
	Value uint64
	Dirty bool
}

// Stats counts cache activity.
type Stats struct {
	ReadHits   uint64
	ReadMisses uint64
	WriteHits  uint64
	// WriteMisses counts both misses on Invalid lines and write requests
	// that hit a Read-Only line (upgrade misses): either way the processor
	// must ask the directory for write permission.
	WriteMisses   uint64
	Replacements  uint64
	Invalidations uint64
}

// HitRate returns the fraction of accesses satisfied locally.
func (s Stats) HitRate() float64 {
	hits := s.ReadHits + s.WriteHits
	total := hits + s.ReadMisses + s.WriteMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// line is one cache line. Field order matters: the three words lead and the
// three byte-sized fields share the tail word, so the struct packs into 32
// bytes instead of 48. A node's line array is the largest single allocation
// in the machine (4096 lines by default), so the packing cuts a third off
// both the construction memclr and the heap footprint, and keeps the array
// pointer-free (the GC never scans it).
type line struct {
	tag   directory.Addr
	value uint64
	used  uint64 // LRU timestamp
	state LineState
	valid bool
	dirty bool
}

// Cache is one node's cache, indexed by block address.
type Cache struct {
	cfg     Config
	sets    int
	setMask int    // sets-1 when sets is a power of two (every real geometry), else -1
	lines   []line // sets * Ways, set-major
	tick    uint64
	stats   Stats

	// filled records the index of every line Fill has installed into, so
	// Release can return the array to the pool after zeroing only the lines
	// this run dirtied. fullClear falls back to a whole-array clear once the
	// list stops being cheaper than the memclr it avoids.
	filled    []int32
	fullClear bool
}

// linePool recycles line arrays across Cache instances. A 64-node machine
// allocates and zeroes 4 MB of line arrays per construction, yet the
// paper's workloads fill a few dozen lines per node — recycling released
// arrays (zeroed fill-by-fill on release) makes repeated simulation runs,
// the benchmark and sweep pattern, nearly free of their largest allocation.
var linePool sync.Pool

// newLines returns a zeroed line array of length n, recycled if possible.
func newLines(n int) []line {
	if v := linePool.Get(); v != nil {
		if sl := v.([]line); len(sl) == n {
			return sl
		}
		// Wrong geometry: drop it and let the GC reclaim.
	}
	return make([]line, n)
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	if cfg.Lines < 1 {
		panic("cache: need at least one line")
	}
	if cfg.Ways < 1 {
		cfg.Ways = 1
	}
	if cfg.Lines%cfg.Ways != 0 {
		panic("cache: Lines must be divisible by Ways")
	}
	if cfg.BlockWords < 1 {
		panic("cache: need at least one word per block")
	}
	sets := cfg.Lines / cfg.Ways
	setMask := -1
	if sets&(sets-1) == 0 {
		// Power-of-two set count: index with a mask instead of the hardware
		// divide a variable modulo compiles to — set selection runs on every
		// access, making the divide one of the hottest instructions in the
		// whole simulator.
		setMask = sets - 1
	}
	return &Cache{cfg: cfg, sets: sets, setMask: setMask, lines: newLines(cfg.Lines)}
}

// Release zeroes every line this cache dirtied and returns the line array
// to the pool for the next Cache of the same geometry. The cache must not
// be used afterwards. Callers that inspect cache contents after a run
// (tests, diagnostics) simply never call Release.
func (c *Cache) Release() {
	if c.lines == nil {
		return
	}
	if c.fullClear {
		clear(c.lines)
	} else {
		for _, i := range c.filled {
			c.lines[i] = line{}
		}
	}
	linePool.Put(c.lines)
	c.lines = nil
	c.filled = nil
}

// recordFill notes that lines[i] is no longer zero.
func (c *Cache) recordFill(i int) {
	if c.fullClear {
		return
	}
	if len(c.filled) >= len(c.lines)/8 {
		// The list outgrew its advantage over a plain memclr.
		c.fullClear = true
		c.filled = nil
		return
	}
	c.filled = append(c.filled, int32(i))
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// setIndex maps addr onto its set.
func (c *Cache) setIndex(addr directory.Addr) int {
	if c.setMask >= 0 {
		return int(addr) & c.setMask
	}
	return int(addr) % c.sets
}

// set returns the ways of addr's set.
func (c *Cache) set(addr directory.Addr) []line {
	s := c.setIndex(addr)
	return c.lines[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
}

// slot returns the way holding addr, or nil.
func (c *Cache) slot(addr directory.Addr) *line {
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			return &set[i]
		}
	}
	return nil
}

// touch refreshes a line's LRU stamp.
func (c *Cache) touch(l *line) {
	c.tick++
	l.used = c.tick
}

// State returns the protocol state of addr (Invalid when not present).
func (c *Cache) State(addr directory.Addr) LineState {
	l := c.slot(addr)
	if l == nil {
		return Invalid
	}
	return l.state
}

// Peek returns the cached value of addr without touching hit/miss
// statistics. Used by the cache controller's read-modify-write path.
func (c *Cache) Peek(addr directory.Addr) (value uint64, ok bool) {
	l := c.slot(addr)
	if l == nil || l.state == Invalid {
		return 0, false
	}
	return l.value, true
}

// Read attempts a load. On a hit it returns the block value. A miss on a
// line in any state is reported as a read miss.
func (c *Cache) Read(addr directory.Addr) (value uint64, hit bool) {
	l := c.slot(addr)
	if l != nil && l.state != Invalid {
		c.touch(l)
		c.stats.ReadHits++
		return l.value, true
	}
	c.stats.ReadMisses++
	return 0, false
}

// Write attempts a store of value. It hits only when the line is held
// Read-Write; a Read-Only hit is an upgrade miss (the directory must
// invalidate the other copies first).
func (c *Cache) Write(addr directory.Addr, value uint64) (hit bool) {
	l := c.slot(addr)
	if l != nil && l.state == ReadWrite {
		c.touch(l)
		l.value = value
		l.dirty = true
		c.stats.WriteHits++
		return true
	}
	c.stats.WriteMisses++
	return false
}

// Fill installs addr with the given state and value, as delivered by an
// RDATA or WDATA message. When the slot holds a different valid block, that
// block is displaced and returned as a victim (the controller sends REPM
// for dirty victims; clean read-only victims are dropped silently, leaving
// a stale directory pointer, exactly as in the paper's protocol where only
// "Replace Modified" generates traffic).
func (c *Cache) Fill(addr directory.Addr, state LineState, value uint64) (v Victim, displaced bool) {
	if state == Invalid {
		panic("cache: Fill with Invalid state")
	}
	// Refill in place when the block is already resident.
	if l := c.slot(addr); l != nil {
		c.touch(l)
		l.state = state
		l.value = value
		l.dirty = false
		return Victim{}, false
	}
	// Pick a way: first invalid, else LRU victim.
	set := c.set(addr)
	victim, vi := &set[0], 0
	for i := range set {
		w := &set[i]
		if !w.valid || w.state == Invalid {
			victim, vi = w, i
			break
		}
		if w.used < victim.used {
			victim, vi = w, i
		}
	}
	if victim.valid && victim.state != Invalid {
		v = Victim{Addr: victim.tag, State: victim.state, Value: victim.value, Dirty: victim.dirty}
		displaced = true
		c.stats.Replacements++
	}
	c.recordFill(c.setIndex(addr)*c.cfg.Ways + vi)
	*victim = line{valid: true, tag: addr, state: state, value: value}
	c.touch(victim)
	return v, displaced
}

// Invalidate drops addr, returning its pre-invalidation contents so the
// controller can answer an INV with UPDATE (dirty) or ACKC (clean). It
// reports present=false when the block was not cached.
func (c *Cache) Invalidate(addr directory.Addr) (value uint64, dirty bool, present bool) {
	l := c.slot(addr)
	if l == nil || l.state == Invalid {
		return 0, false, false
	}
	value, dirty = l.value, l.dirty
	*l = line{}
	c.stats.Invalidations++
	return value, dirty, true
}

// Downgrade moves a Read-Write line to Read-Only, returning its value (for
// an UPDATE writeback). Unused by the base protocol — Figure 2 invalidates
// the owner on a read transaction — but needed by the Section 6
// update-mode extension.
func (c *Cache) Downgrade(addr directory.Addr) (value uint64, ok bool) {
	l := c.slot(addr)
	if l == nil || l.state != ReadWrite {
		return 0, false
	}
	l.state = ReadOnly
	l.dirty = false
	return l.value, true
}

// Update overwrites the value of a cached block without changing its
// state, as the Section 6 update-mode extension does on remote writes.
func (c *Cache) Update(addr directory.Addr, value uint64) bool {
	l := c.slot(addr)
	if l == nil || l.state == Invalid {
		return false
	}
	l.value = value
	return true
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].state != Invalid {
			n++
		}
	}
	return n
}
