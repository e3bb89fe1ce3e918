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
	"slices"
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
}

// DefaultConfig returns the Alewife cache geometry.
func DefaultConfig() Config { return Config{Lines: 4096} }

// Victim describes a block displaced by a conflicting fill.
type Victim struct {
	Addr  directory.Addr
	State LineState
	Value uint64
	Dirty bool
}

// line is one cache line; it holds a block exactly when its state is not
// Invalid. Field order matters: the three words lead and the two
// byte-sized fields share the tail word, so the struct packs into 32 bytes
// and stays pointer-free (the GC never scans a page).
type line struct {
	tag   directory.Addr
	value uint64
	used  uint64 // LRU timestamp
	state LineState
	dirty bool
}

// pageLines is the number of lines in one page: 2 KiB of line storage.
const pageLines = 64

// page is a run of pageLines consecutive lines of the set-major line
// array.
type page [pageLines]line

// absent stands in for every page no Fill has reached yet. Its lines are
// all invalid, so a lookup in it is a miss that needs no nil check and
// allocates nothing. It is shared by every cache and never written: only
// lines a lookup found valid are modified in place, and Fill swaps in a
// real page before installing a line.
var absent page

// pagePool recycles zeroed pages across Cache instances: Release hands a
// cache's pages back and the next machine's fills draw on them. cachePool
// recycles the Cache structs, with their page-pointer arrays, for New.
var pagePool, cachePool sync.Pool

// Cache is one node's cache, indexed by block address. Its lines are
// stored in pages allocated on first fill, so a node's footprint follows
// the blocks it actually caches: the paper's workloads touch a few pages
// of the 64 a 4096-line cache spans.
type Cache struct {
	cfg     Config
	sets    int
	setMask int     // sets-1 when sets is a power of two (every real geometry), else -1
	pages   []*page // line i lives in pages[i/pageLines]; &absent until filled
	tick    uint64
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
	sets := cfg.Lines / cfg.Ways
	setMask := -1
	if sets&(sets-1) == 0 {
		// Power-of-two set count: index with a mask instead of the hardware
		// divide a variable modulo compiles to — set selection runs on every
		// access, making the divide one of the hottest instructions in the
		// whole simulator.
		setMask = sets - 1
	}
	c, _ := cachePool.Get().(*Cache)
	if c == nil {
		c = new(Cache)
	}
	// The page-pointer array is the one buffer a recycled cache keeps.
	n := (cfg.Lines + pageLines - 1) / pageLines
	*c = Cache{cfg: cfg, sets: sets, setMask: setMask, pages: slices.Grow(c.pages[:0], n)}
	for range n {
		c.pages = append(c.pages, &absent)
	}
	return c
}

// Release zeroes the cache's pages and returns them to the pool for the
// next Cache, and hands the cache itself to the pool New draws on. The
// cache must not be used afterwards, and must be released only once: a
// cache pooled twice would serve two machines. Callers that inspect cache
// contents after a run (tests, diagnostics) simply never call Release.
func (c *Cache) Release() {
	for _, p := range c.pages {
		if p != &absent {
			*p = page{}
			pagePool.Put(p)
		}
	}
	clear(c.pages)
	*c = Cache{pages: c.pages[:0]}
	cachePool.Put(c)
}

// setIndex maps addr onto its set.
func (c *Cache) setIndex(addr directory.Addr) int {
	if c.setMask >= 0 {
		return int(addr) & c.setMask
	}
	return int(addr) % c.sets
}

// at returns line i of the set-major line array.
func (c *Cache) at(i int) *line {
	return &c.pages[uint(i)/pageLines][uint(i)%pageLines]
}

// slot returns the way holding addr, or nil; a line it returns is never
// Invalid.
func (c *Cache) slot(addr directory.Addr) *line {
	i := c.setIndex(addr) * c.cfg.Ways
	for end := i + c.cfg.Ways; i < end; i++ {
		if l := c.at(i); l.state != Invalid && l.tag == addr {
			return l
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

// Peek returns the cached value of addr without touching its LRU stamp.
// Used by the cache controller's read-modify-write path.
func (c *Cache) Peek(addr directory.Addr) (value uint64, ok bool) {
	l := c.slot(addr)
	if l == nil {
		return 0, false
	}
	return l.value, true
}

// Read attempts a load. On a hit it returns the block value.
func (c *Cache) Read(addr directory.Addr) (value uint64, hit bool) {
	l := c.slot(addr)
	if l == nil {
		return 0, false
	}
	c.touch(l)
	return l.value, true
}

// ReadN performs n reads of addr in a row in closed form: on a hit it
// returns the block value and leaves the LRU stamps where n Read calls
// would; on a miss it changes nothing and reports false.
func (c *Cache) ReadN(addr directory.Addr, n uint64) (value uint64, hit bool) {
	l := c.slot(addr)
	if l == nil {
		return 0, false
	}
	c.tick += n
	l.used = c.tick
	return l.value, true
}

// Write attempts a store of value. It hits only when the line is held
// Read-Write; a Read-Only hit is an upgrade miss (the directory must
// invalidate the other copies first).
func (c *Cache) Write(addr directory.Addr, value uint64) (hit bool) {
	l := c.slot(addr)
	if l == nil || l.state != ReadWrite {
		return false
	}
	c.touch(l)
	l.value = value
	l.dirty = true
	return true
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
	i := c.setIndex(addr) * c.cfg.Ways
	vi := i
	for end := i + c.cfg.Ways; i < end; i++ {
		w := c.at(i)
		if w.state == Invalid {
			vi = i
			break
		}
		if w.used < c.at(vi).used {
			vi = i
		}
	}
	victim := c.at(vi)
	if victim.state != Invalid {
		v = Victim{Addr: victim.tag, State: victim.state, Value: victim.value, Dirty: victim.dirty}
		displaced = true
	}
	if p := &c.pages[uint(vi)/pageLines]; *p == &absent {
		// The first fill into this page: give it storage of its own.
		*p, _ = pagePool.Get().(*page)
		if *p == nil {
			*p = new(page)
		}
		victim = c.at(vi)
	}
	*victim = line{tag: addr, state: state, value: value}
	c.touch(victim)
	return v, displaced
}

// Invalidate drops addr, returning its pre-invalidation contents so the
// controller can answer an INV with UPDATE (dirty) or ACKC (clean). It
// reports present=false when the block was not cached.
func (c *Cache) Invalidate(addr directory.Addr) (value uint64, dirty bool, present bool) {
	l := c.slot(addr)
	if l == nil {
		return 0, false, false
	}
	value, dirty = l.value, l.dirty
	*l = line{}
	return value, dirty, true
}

// Update overwrites the value of a cached block without changing its
// state, as the Section 6 update-mode extension does on remote writes.
func (c *Cache) Update(addr directory.Addr, value uint64) bool {
	l := c.slot(addr)
	if l == nil {
		return false
	}
	l.value = value
	return true
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, p := range c.pages {
		for i := range p {
			if p[i].state != Invalid {
				n++
			}
		}
	}
	return n
}
