package main

import (
	"time"

	"limitless/internal/cache"
	"limitless/internal/directory"
)

// replayFor is the host time each replay measures at least.
const replayFor = 100 * time.Millisecond

// replays records one weather-p64 run's operation mix through the tracer
// and replays it through the cache and the directory store alone. The mix
// is weather-p64's on every workload, so the two numbers price the layer's
// code on one fixed input.
func replays() (metricValues, error) {
	w, err := workloadByName("weather-p64")
	if err != nil {
		return nil, err
	}
	mc, err := w.machineConfig(0)
	if err != nil {
		return nil, err
	}
	t := newTracer(w.procs)
	t.recording = true
	if _, _, err := t.run(w, mc); err != nil {
		return nil, err
	}
	return metricValues{
		"cache.replay_ns_per_access": replayCache(t.ops),
		"directory.replay_ns_per_op": replayDirectory(t.homes, w.procs),
	}, nil
}

// replayCache runs each node's recorded references through a fresh
// Alewife cache: a load that misses fills Read-Only, a store that misses
// fills Read-Write. It returns host ns per reference.
func replayCache(ops [][]access) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < replayFor {
		for _, stream := range ops {
			c := cache.New(cache.DefaultConfig())
			for i, a := range stream {
				if a.store {
					if !c.Write(a.addr, uint64(i)) {
						c.Fill(a.addr, cache.ReadWrite, uint64(i))
					}
				} else if _, hit := c.Read(a.addr); !hit {
					c.Fill(a.addr, cache.ReadOnly, 0)
				}
			}
			c.Release()
			n += len(stream)
		}
	}
	return ratio(float64(time.Since(start)), float64(n))
}

// replayDirectory runs each home's recorded block addresses through a fresh
// packed directory store, as the memory controller does per message: one
// EntryOrCreate and one Lookup each. It returns host ns per operation.
func replayDirectory(homes [][]directory.Addr, nodes int) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < replayFor {
		for _, addrs := range homes {
			s := directory.NewStore(directory.NewSpace(nodes, directory.StoragePacked), 4)
			for _, a := range addrs {
				s.EntryOrCreate(a)
				s.Lookup(a)
			}
			n += 2 * len(addrs)
		}
	}
	return ratio(float64(time.Since(start)), float64(n))
}
