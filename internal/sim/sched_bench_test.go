package sim

import "testing"

// Scheduler microbenchmarks: the same operation mix driven through the
// timing wheel and the binary-heap oracle. "near" keeps every deadline
// inside a few dozen cycles (the machine model's native delay profile:
// hits, hops, memory, trap dispatch); "far" salts in deadlines beyond the
// 1024-cycle wheel horizon so the overflow tier (and the heap's extra
// depth) shows up. Run with
//
//	go test -bench FireDrain -benchmem ./internal/sim
//
// and compare the wheel and heap sub-benchmarks directly.

// schedulers names the two pending-event structures for sub-benchmarks.
var schedulers = []struct {
	name string
	kind SchedulerKind
}{{"wheel", SchedWheel}, {"heap", SchedHeap}}

func benchDelay(i int, far bool) Time {
	if far && i&7 == 0 {
		return 4096 + Time(i&1023)
	}
	return 1 + Time(i&63)
}

// BenchmarkFireDrain measures the full schedule->fire cycle: each round
// files a burst of events across a few dozen cycles, then drains it. The
// near mix clusters many events per cycle, which is where the wheel's
// per-cycle bucket drain pays off; the far mix adds overflow promotion
// across wheel epochs.
func BenchmarkFireDrain(b *testing.B) {
	const burst = 1024
	for _, sched := range schedulers {
		for _, mix := range []string{"near", "far"} {
			far := mix == "far"
			b.Run(sched.name+"/"+mix, func(b *testing.B) {
				e := New()
				e.SetScheduler(sched.kind)
				nop := nopHandler{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					base := e.Now()
					for j := 0; j < burst; j++ {
						e.AtHandler(base+benchDelay(j, far), nop, nil)
					}
					e.Run()
				}
				b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}
