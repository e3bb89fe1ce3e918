package sim

import "testing"

// Scheduler microbenchmarks: the same operation mixes driven through the
// timing wheel and the binary-heap oracle. "near" keeps every deadline
// inside a few dozen cycles (the machine model's native delay profile:
// hits, hops, memory, trap dispatch); "far" salts in deadlines beyond the
// 1024-cycle wheel horizon so the overflow tier (and the heap's extra
// depth) shows up. Run with
//
//	go test -bench 'Schedule|FireDrain' -benchmem ./internal/sim
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

// BenchmarkSchedule measures pure schedule+cancel churn (the retry-timer
// pattern: armed, then cancelled on success) over a standing population of
// pending events, with the clock never advancing.
func BenchmarkSchedule(b *testing.B) {
	for _, sched := range schedulers {
		for _, mix := range []string{"near", "far"} {
			far := mix == "far"
			b.Run(sched.name+"/"+mix, func(b *testing.B) {
				e := New()
				e.SetScheduler(sched.kind)
				nop := nopHandler{}
				// Standing population so the heap pays a realistic depth;
				// deadlines 512..911 stay clear of the churn deadlines below
				// so the churn measures bucket reuse, not slice growth under
				// permanently-live buckets.
				for i := 0; i < 1024; i++ {
					e.AtHandler(Time(512+i%400), nop, nil)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ref := e.AtHandler(e.Now()+benchDelay(i, far), nop, nil)
					e.Cancel(ref)
				}
			})
		}
	}
}

// BenchmarkFireDrain measures the full schedule->fire cycle: each round
// files a burst of events across a few dozen cycles, then drains it. The
// near mix clusters many events per cycle, which is where the wheel's
// per-cycle batch dispatch pays off; the far mix adds overflow promotion
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
