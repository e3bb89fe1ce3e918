package workload

import (
	"math"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/proc"
	"limitless/internal/sim"
)

// MultigridConfig parameterizes the statically scheduled multigrid
// relaxation of Figure 7: each processor owns a partition of the grid,
// iterations alternate local smoothing with boundary exchange between
// nearest neighbours, and a combining-tree barrier separates iterations.
// Every shared block has a worker-set of two (owner plus one neighbour),
// the regime in which the paper finds limited directories "perform almost
// as well as the full-map protocol".
type MultigridConfig struct {
	Procs          int
	Iters          int
	ComputeCycles  sim.Time // local smoothing work per iteration
	BoundaryBlocks int      // blocks exchanged with each neighbour
	PrivateBlocks  int      // interior blocks touched per iteration
	BarrierFanIn   int
}

// DefaultMultigrid returns the configuration used for the Figure 7
// reproduction on nprocs processors.
func DefaultMultigrid(nprocs int) MultigridConfig {
	return MultigridConfig{
		Procs:          nprocs,
		Iters:          8,
		ComputeCycles:  300,
		BoundaryBlocks: 4,
		PrivateBlocks:  16,
		BarrierFanIn:   4,
	}
}

// boundary returns the k-th boundary block that processor p exposes on
// side s (0..3). It is homed at p.
func (cfg MultigridConfig) boundary(p mesh.NodeID, side, k int) directory.Addr {
	return coherence.BlockAt(p, uint64(1+side*cfg.BoundaryBlocks+k))
}

// private returns processor p's k-th interior block.
func (cfg MultigridConfig) private(p mesh.NodeID, k int) directory.Addr {
	return coherence.BlockAt(p, uint64(1000+k))
}

// neighbours returns the processor-grid neighbours of p and, for each, the
// side of that neighbour facing p.
func (cfg MultigridConfig) neighbours(p int) (ids []mesh.NodeID, sides []int) {
	side := int(math.Sqrt(float64(cfg.Procs)))
	if side*side < cfg.Procs {
		side++
	}
	x, y := p%side, p/side
	type nb struct {
		x, y, facing int
	}
	for _, c := range []nb{{x - 1, y, 0}, {x + 1, y, 1}, {x, y - 1, 2}, {x, y + 1, 3}} {
		if c.x < 0 || c.y < 0 || c.x >= side {
			continue
		}
		q := c.y*side + c.x
		if q >= cfg.Procs {
			continue
		}
		ids = append(ids, mesh.NodeID(q))
		sides = append(sides, c.facing)
	}
	return ids, sides
}

// Multigrid builds one workload per processor. All processors share the
// returned barrier's variables.
func Multigrid(cfg MultigridConfig) []proc.Workload {
	if cfg.BarrierFanIn == 0 {
		cfg.BarrierFanIn = 4
	}
	bar := NewBarrier(cfg.Procs, cfg.BarrierFanIn, SequentialAllocator(5000))

	wls := make([]proc.Workload, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		p := p
		me := mesh.NodeID(p)
		nbs, sides := cfg.neighbours(p)
		wls[p] = NewThread(func(t *Thread) {
			// A phase machine, like Weather's: every continuation is
			// allocated once per thread, and the iteration and block
			// indices are mutable captured state. The steps run strictly
			// sequentially, so advancing an index before re-entering a step
			// is safe.
			var (
				iter, ni, k                int
				phase, smooth, read, write func(*Thread)
				afterCompute, afterSmooth  Cont
				afterRead, afterWrite      Cont
				done                       func(*Thread)
			)
			// phase runs one iteration: local smoothing, the boundary
			// exchange, then the barrier.
			phase = func(t *Thread) {
				if iter >= cfg.Iters {
					return
				}
				t.Compute(cfg.ComputeCycles, afterCompute)
			}
			afterCompute = func(_ uint64, t *Thread) {
				k = 0
				smooth(t)
			}
			// Local smoothing over the interior.
			smooth = func(t *Thread) {
				if k >= cfg.PrivateBlocks {
					ni, k = 0, 0
					read(t)
					return
				}
				t.StorePrivate(cfg.private(me, k), uint64(iter), afterSmooth)
			}
			afterSmooth = func(_ uint64, t *Thread) {
				k++
				smooth(t)
			}
			// Read each neighbour's facing boundary.
			read = func(t *Thread) {
				for ni < len(nbs) && k >= cfg.BoundaryBlocks {
					ni, k = ni+1, 0
				}
				if ni >= len(nbs) {
					k = 0
					write(t)
					return
				}
				t.Load(cfg.boundary(nbs[ni], sides[ni], k), afterRead)
			}
			afterRead = func(_ uint64, t *Thread) {
				k++
				read(t)
			}
			// Publish this processor's own boundaries, then join the
			// barrier.
			write = func(t *Thread) {
				if k >= 4*cfg.BoundaryBlocks {
					bar.Wait(t, p, uint64(iter+1), done)
					return
				}
				side, j := k/cfg.BoundaryBlocks, k%cfg.BoundaryBlocks
				t.Store(cfg.boundary(me, side, j), uint64(iter+1), afterWrite)
			}
			afterWrite = func(_ uint64, t *Thread) {
				k++
				write(t)
			}
			done = func(t *Thread) {
				iter++
				phase(t)
			}
			phase(t)
		})
	}
	return wls
}
