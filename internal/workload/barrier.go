package workload

import (
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/sim"
)

// Barrier is a software combining-tree barrier in the style the Weather
// application uses "to distribute its barrier synchronization variables"
// (Section 5.2). Processors form a static F-ary tree (heap layout, root at
// processor 0). Arrival combines up the tree — each processor waits for
// its children's arrival words, then publishes its own — and the release
// wave flows back down through per-processor release words.
//
// Every barrier variable is written by exactly one processor and read by
// exactly one other, so the barrier's worker-sets are all exactly two.
// That is why the single unoptimized hot-spot variable dominates Figure 8
// (the barrier itself never creates a wide worker-set), and it doubles as
// the Figure 10 stressor: with only one hardware pointer (LimitLESS₁),
// even these worker-set-2 words overflow into software every epoch.
//
// Arrival and release words carry epoch numbers and are spun on with >=,
// so no resets are needed and epochs never race.
type Barrier struct {
	nprocs int
	fanIn  int
	arrive []directory.Addr // written by p, read by parent(p)
	releas []directory.Addr // written by parent(p), read by p
	ids    []int            // 0..nprocs-1, sliced by children
	// SpinBackoff is the delay between polls (the paper's barrier study
	// [25] examines exactly such backoffs).
	SpinBackoff sim.Time
}

// AddrAllocator hands out fresh block addresses homed near a given
// processor, so each barrier word lives in the memory of the processor
// that spins on or publishes it.
type AddrAllocator func(near mesh.NodeID) directory.Addr

// NewBarrier builds a static combining tree over nprocs processors with
// the given fan-in.
func NewBarrier(nprocs, fanIn int, alloc AddrAllocator) *Barrier {
	if nprocs < 1 || fanIn < 2 {
		panic("workload: barrier needs nprocs >= 1, fanIn >= 2")
	}
	b := &Barrier{
		nprocs:      nprocs,
		fanIn:       fanIn,
		arrive:      make([]directory.Addr, nprocs),
		releas:      make([]directory.Addr, nprocs),
		ids:         make([]int, nprocs),
		SpinBackoff: 12,
	}
	for p := 0; p < nprocs; p++ {
		b.arrive[p] = alloc(mesh.NodeID(p))
		b.releas[p] = alloc(mesh.NodeID(p))
		b.ids[p] = p
	}
	return b
}

// children returns processor p's tree children (heap layout). They are a
// contiguous run of processor ids, so the result is a subslice of the
// precomputed id table and barrier entry allocates nothing.
func (b *Barrier) children(p int) []int {
	lo := min(p*b.fanIn+1, b.nprocs)
	hi := min(lo+b.fanIn, b.nprocs)
	return b.ids[lo:hi]
}

// parent returns p's tree parent (p must not be the root).
func (b *Barrier) parent(p int) int { return (p - 1) / b.fanIn }

// Depth returns the height of the tree.
func (b *Barrier) Depth() int {
	d, span := 1, 1
	covered := 1
	for covered < b.nprocs {
		span *= b.fanIn
		covered += span
		d++
	}
	return d
}

// NumNodes returns the number of tree positions (= processors).
func (b *Barrier) NumNodes() int { return b.nprocs }

// Wait enters processor pid into the barrier for the given epoch (epochs
// start at 1 and increase by 1 per barrier) and continues when every
// processor has arrived and the release wave reaches pid.
func (b *Barrier) Wait(t *Thread, pid int, epoch uint64, then func(*Thread)) {
	kids := b.children(pid)
	// Phase 1: combine — wait for each child's arrival word.
	b.awaitKids(t, kids, 0, epoch, func(t *Thread) {
		if pid != 0 {
			// Publish arrival to the parent, then wait for the release.
			t.Store(b.arrive[pid], epoch, func(_ uint64, t *Thread) {
				t.SpinUntil(b.releas[pid], func(v uint64) bool { return v >= epoch }, b.SpinBackoff,
					func(_ uint64, t *Thread) { b.releaseKids(t, kids, 0, epoch, then) })
			})
			return
		}
		// Root: everyone has arrived; start the release wave.
		b.releaseKids(t, kids, 0, epoch, then)
	})
}

func (b *Barrier) awaitKids(t *Thread, kids []int, i int, epoch uint64, then func(*Thread)) {
	if i >= len(kids) {
		then(t)
		return
	}
	t.SpinUntil(b.arrive[kids[i]], func(v uint64) bool { return v >= epoch }, b.SpinBackoff,
		func(_ uint64, t *Thread) { b.awaitKids(t, kids, i+1, epoch, then) })
}

func (b *Barrier) releaseKids(t *Thread, kids []int, i int, epoch uint64, then func(*Thread)) {
	if i >= len(kids) {
		then(t)
		return
	}
	t.Store(b.releas[kids[i]], epoch, func(_ uint64, t *Thread) {
		b.releaseKids(t, kids, i+1, epoch, then)
	})
}

// SequentialAllocator returns an AddrAllocator that hands out consecutive
// block indices per home node starting at base (leaving lower indices for
// the application's own data).
func SequentialAllocator(base uint64) AddrAllocator {
	next := make(map[mesh.NodeID]uint64)
	return func(near mesh.NodeID) directory.Addr {
		idx := base + next[near]
		next[near]++
		return coherence.BlockAt(near, idx)
	}
}
