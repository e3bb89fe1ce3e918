package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On a shared virtual machine the host's speed
// drifts by 10-80% over minutes, as neighbours load the machine, and every
// timing drifts with it. Each child therefore times short slices of fixed
// work between its runs. The slices share the simulator's profile — an
// event heap, a table larger than the L1 cache, data-dependent branches —
// and every host time the benchmark reports is scaled by refCalibNs / (the
// child's median slice time), so it reads as on a host as fast as the
// reference.
//
// No change to the simulator can move the slices: they are the benchmark's
// own code and allocate nothing; each starts after a sweep that brings its
// table back into cache, whatever the run before it evicted; and the table
// lives outside the Go heap, so it does not move the simulator's garbage
// collections (it adds a constant 1 MiB to the child's RSS).

const (
	calibEvents = 20000
	calibBits   = 17 // a table of 1<<calibBits words: 1 MiB
	// refCalibNs is the median slice time on the reference host, a 2-vCPU
	// Intel Xeon virtual machine at 2.1 GHz, in a quiet period.
	refCalibNs = 1.6e6
)

type calibEvent struct{ at, key uint64 }

type calibrator struct {
	events []calibEvent // binary min-heap on at
	table  []uint64     // mapped outside the Go heap
	rng    uint64
	times  []float64 // ns of each measured slice
}

var calibSink uint64

func newCalibrator() (*calibrator, error) {
	const words = 1 << calibBits
	mem, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration table: %w", err)
	}
	c := &calibrator{events: make([]calibEvent, 1024), rng: 88172645463325252,
		table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words), times: make([]float64, 0, 1024)}
	for i := range c.events { // ascending at: already a heap
		c.events[i] = calibEvent{at: uint64(i), key: uint64(i) * 0x9E3779B97F4A7C15}
	}
	return c, nil
}

// measure brings the slice's data back into cache and times one slice.
func (c *calibrator) measure() {
	for i := 0; i < len(c.table); i += 8 { // one word per 64-byte line
		calibSink += c.table[i]
	}
	for i := range c.events {
		calibSink += c.events[i].at
	}
	start := time.Now()
	calibSink += c.slice()
	c.times = append(c.times, float64(time.Since(start)))
}

// ns returns the median slice time.
func (c *calibrator) ns() int64 { return int64(median(c.times)) }

// slice fires calibEvents events: each pops the earliest, updates a table
// slot picked by its key, and reschedules itself a pseudo-random delay on.
func (c *calibrator) slice() uint64 {
	var sum uint64
	h := c.events
	for n := 0; n < calibEvents; n++ {
		e := h[0]
		slot := &c.table[(e.key*0x9E3779B97F4A7C15)>>(64-calibBits)]
		*slot += e.at
		sum += *slot
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		h[0] = calibEvent{at: e.at + 1 + c.rng%32 + *slot&7, key: e.key ^ c.rng>>20}
		for i := 0; ; { // sift the rescheduled event down
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && h[r].at < h[l].at {
				l = r
			}
			if h[i].at <= h[l].at {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}
	return sum
}
