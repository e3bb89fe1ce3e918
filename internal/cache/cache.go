// Package cache models each Alewife node's processor cache: 64K bytes,
// direct-mapped, 16-byte blocks (Section 2). The cache holds the
// cache-side protocol states of Table 1 — Invalid, Read-Only, Read-Write —
// plus per-line data, and reports replacement victims so the cache
// controller can issue REPM (replace-modified) messages for dirty lines.
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
	// Lines is the total number of lines, a power of two. The Alewife
	// cache is 64 KB of 16-byte blocks: 4096 lines.
	Lines int
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
// Invalid. The two words lead and the two byte-sized fields share the
// tail word, so the struct packs into 24 bytes and stays pointer-free
// (the GC never scans a page).
type line struct {
	tag   directory.Addr
	value uint64
	state LineState
	dirty bool
}

// pageLines is the number of lines in one page: 1.5 KiB of line storage.
const pageLines = 64

// page is a run of pageLines consecutive lines.
type page [pageLines]line

// absent stands in for every page no Fill has reached yet. Its lines are
// all invalid, so a lookup in it is a miss that needs no nil check and
// allocates nothing. It is shared by every cache and never written: only
// lines a lookup found valid are modified in place, and Fill swaps in a
// real page before installing a line.
var absent page

// cachePool recycles the Cache structs, with their page-pointer arrays
// and spare pages, for New.
var cachePool sync.Pool

// Cache is one node's direct-mapped cache, indexed by block address. Its
// lines are stored in pages allocated on first fill, so a node's footprint
// follows the blocks it actually caches: the paper's workloads touch a few
// pages of the 64 a 4096-line cache spans.
type Cache struct {
	mask  uint    // Lines-1: a block's line is its address masked
	pages []*page // line i lives in pages[i/pageLines]; &absent until filled
	spare []*page // zeroed pages of an earlier run, for Fill to take first
}

// New returns an empty cache. It panics unless cfg.Lines is a positive
// power of two, so a block's line is its address masked.
func New(cfg Config) *Cache {
	if cfg.Lines < 1 || cfg.Lines&(cfg.Lines-1) != 0 {
		panic("cache: Lines must be a positive power of two")
	}
	c, _ := cachePool.Get().(*Cache)
	if c == nil {
		c = new(Cache)
	}
	// A recycled cache keeps its page-pointer array and its spare pages.
	n := (cfg.Lines + pageLines - 1) / pageLines
	*c = Cache{mask: uint(cfg.Lines - 1), pages: slices.Grow(c.pages[:0], n), spare: c.spare}
	for range n {
		c.pages = append(c.pages, &absent)
	}
	return c
}

// Release zeroes the cache's pages and keeps them as spares for the next
// machine's fills, and hands the cache to the pool New draws on. The cache
// must not be used afterwards, and must be released only once: a cache
// pooled twice would serve two machines. Callers that inspect cache
// contents after a run (tests, diagnostics) simply never call Release.
func (c *Cache) Release() {
	for _, p := range c.pages {
		if p != &absent {
			*p = page{}
			c.spare = append(c.spare, p)
		}
	}
	clear(c.pages)
	*c = Cache{pages: c.pages[:0], spare: c.spare}
	cachePool.Put(c)
}

// slot returns the line holding addr, or nil; a line it returns is never
// Invalid.
func (c *Cache) slot(addr directory.Addr) *line {
	i := uint(addr) & c.mask
	if l := &c.pages[i/pageLines][i%pageLines]; l.state != Invalid && l.tag == addr {
		return l
	}
	return nil
}

// State returns the protocol state of addr (Invalid when not present).
func (c *Cache) State(addr directory.Addr) LineState {
	l := c.slot(addr)
	if l == nil {
		return Invalid
	}
	return l.state
}

// Read attempts a load. On a hit it returns the block value.
func (c *Cache) Read(addr directory.Addr) (value uint64, hit bool) {
	l := c.slot(addr)
	if l == nil {
		return 0, false
	}
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
	l.value = value
	l.dirty = true
	return true
}

// Fill installs addr with the given state and value, as delivered by an
// RDATA or WDATA message. When the line holds a different valid block, that
// block is displaced and returned as a victim (the controller sends REPM
// for dirty victims; clean read-only victims are dropped silently, leaving
// a stale directory pointer, exactly as in the paper's protocol where only
// "Replace Modified" generates traffic). A block already resident is
// refilled in place.
func (c *Cache) Fill(addr directory.Addr, state LineState, value uint64) (v Victim, displaced bool) {
	if state == Invalid {
		panic("cache: Fill with Invalid state")
	}
	i := uint(addr) & c.mask
	p := &c.pages[i/pageLines]
	if *p == &absent {
		// The first fill into this page: give it storage of its own.
		if n := len(c.spare); n > 0 {
			*p, c.spare = c.spare[n-1], c.spare[:n-1]
		} else {
			*p = new(page)
		}
	}
	l := &(*p)[i%pageLines]
	if l.state != Invalid && l.tag != addr {
		v = Victim{Addr: l.tag, State: l.state, Value: l.value, Dirty: l.dirty}
		displaced = true
	}
	*l = line{tag: addr, state: state, value: value}
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
