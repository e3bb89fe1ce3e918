package workload

import (
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/proc"
	"limitless/internal/sim"
)

// MigratoryConfig drives a token-passing workload: a data block migrates
// from processor to processor (each holder mutates it and hands it on).
// This is the data type Section 6 suggests handling with FIFO directory
// eviction; it also exercises ownership hand-off (transitions 4/5/8 of
// Table 2) heavily.
type MigratoryConfig struct {
	Procs  int
	Rounds int // times the token circulates the ring
	Work   sim.Time
}

// TokenAddr is the migrating block (homed at node 0).
func (cfg MigratoryConfig) TokenAddr() directory.Addr { return coherence.BlockAt(0, 7) }

// FlagAddr is the turn indicator the processors spin on.
func (cfg MigratoryConfig) FlagAddr() directory.Addr { return coherence.BlockAt(0, 8) }

// Migratory builds one workload per processor. The flag counts total
// hand-offs; processor p moves when flag ≡ p (mod Procs).
func Migratory(cfg MigratoryConfig) []proc.Workload {
	total := uint64(cfg.Rounds * cfg.Procs)
	wls := make([]proc.Workload, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		p := p
		wls[p] = NewThread(func(t *Thread) {
			var turn func(myTurn uint64, t *Thread)
			turn = func(myTurn uint64, t *Thread) {
				if myTurn >= total {
					return
				}
				t.SpinUntil(cfg.FlagAddr(), func(v uint64) bool { return v >= myTurn }, 16,
					func(_ uint64, t *Thread) {
						// Hold the token: mutate the migrating block.
						t.RMW(cfg.TokenAddr(), func(old uint64) uint64 { return old + 1 },
							func(_ uint64, t *Thread) {
								t.Compute(cfg.Work, func(_ uint64, t *Thread) {
									// Pass the token on.
									t.Store(cfg.FlagAddr(), myTurn+1, func(_ uint64, t *Thread) {
										turn(myTurn+uint64(cfg.Procs), t)
									})
								})
							})
					})
			}
			turn(uint64(p), t)
		})
	}
	return wls
}

// LockConfig drives contention on a single lock variable: every processor
// performs Acquires stores to it back to back. Under the base protocol the
// writers BUSY-retry against each other; under the Section 6 FIFO-lock
// handler the home node buffers and grants them first-come, first-served.
type LockConfig struct {
	Procs    int
	Acquires int
	Hold     sim.Time // work done per acquisition
	Lock     directory.Addr
}

// DefaultLock places the lock at node 0.
func DefaultLock(nprocs, acquires int) LockConfig {
	return LockConfig{Procs: nprocs, Acquires: acquires, Hold: 20, Lock: coherence.BlockAt(0, 9)}
}

// LockContention builds one workload per processor.
func LockContention(cfg LockConfig) []proc.Workload {
	wls := make([]proc.Workload, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		p := p
		wls[p] = NewThread(func(t *Thread) {
			Loop(t, cfg.Acquires, func(i int, t *Thread, next func(*Thread)) {
				t.Store(cfg.Lock, uint64(p)<<32|uint64(i), func(_ uint64, t *Thread) {
					t.Compute(cfg.Hold, func(_ uint64, t *Thread) { next(t) })
				})
			}, func(*Thread) {})
		})
	}
	return wls
}

// ProducerConsumerConfig drives the update-mode comparison: one producer
// rewrites a variable every round; Consumers read it every round. Under
// invalidate coherence every round costs each consumer a miss; under the
// Section 6 update extension the new value is pushed into their caches.
type ProducerConsumerConfig struct {
	Consumers int // processors 1..Consumers consume; processor 0 produces
	Rounds    int
	Gap       sim.Time // producer delay between rounds
	Var       directory.Addr
	ConsWork  sim.Time
	FanIn     int
}

// DefaultProducerConsumer places the shared variable at node 0.
func DefaultProducerConsumer(consumers, rounds int) ProducerConsumerConfig {
	return ProducerConsumerConfig{
		Consumers: consumers,
		Rounds:    rounds,
		Gap:       50,
		Var:       coherence.BlockAt(0, 11),
		ConsWork:  30,
		FanIn:     4,
	}
}

// ProducerConsumer builds Consumers+1 workloads: index 0 produces.
func ProducerConsumer(cfg ProducerConsumerConfig) []proc.Workload {
	n := cfg.Consumers + 1
	bar := NewBarrier(n, cfg.FanIn, SequentialAllocator(5000))
	wls := make([]proc.Workload, n)
	for p := 0; p < n; p++ {
		p := p
		wls[p] = NewThread(func(t *Thread) {
			Loop(t, cfg.Rounds, func(r int, t *Thread, next func(*Thread)) {
				join := func(t *Thread) { bar.Wait(t, p, uint64(r+1), next) }
				if p == 0 {
					t.Store(cfg.Var, uint64(r+1), func(_ uint64, t *Thread) {
						t.Compute(cfg.Gap, func(_ uint64, t *Thread) { join(t) })
					})
					return
				}
				t.Load(cfg.Var, func(_ uint64, t *Thread) {
					t.Compute(cfg.ConsWork, func(_ uint64, t *Thread) { join(t) })
				})
			}, func(*Thread) {})
		})
	}
	return wls
}

// RotatingConfig drives a rotating-reader pattern: each processor reads a
// single shared block once, in turn, and never returns to it; the owner
// rewrites the block at the end. This is the data type the Section 6
// FIFO-eviction handler targets: the pointer set only ever contains dead
// readers, so evicting the oldest is free while extending the directory
// into software is pure overhead (a vector that must be fully invalidated
// at the final write).
type RotatingConfig struct {
	Procs int
	Gap   sim.Time // stagger between successive readers
}

// RotAddr is the rotating block, homed at node 0.
func (cfg RotatingConfig) RotAddr() directory.Addr { return coherence.BlockAt(0, 13) }

// RotatingReaders builds one workload per processor.
func RotatingReaders(cfg RotatingConfig) []proc.Workload {
	if cfg.Gap == 0 {
		cfg.Gap = 60
	}
	wls := make([]proc.Workload, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		p := p
		wls[p] = NewThread(func(t *Thread) {
			t.Compute(sim.Time(p+1)*cfg.Gap, func(_ uint64, t *Thread) {
				t.Load(cfg.RotAddr(), func(_ uint64, t *Thread) {
					if p == 0 {
						// The owner's final rewrite, long after the last reader.
						t.Compute(sim.Time(cfg.Procs+4)*cfg.Gap, func(_ uint64, t *Thread) {
							t.Store(cfg.RotAddr(), 1, func(_ uint64, t *Thread) {})
						})
					}
				})
			})
		})
	}
	return wls
}
