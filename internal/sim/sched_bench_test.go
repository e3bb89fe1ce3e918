package sim

import "testing"

// Scheduler microbenchmarks on the timing wheel. "near" keeps every
// deadline inside a few dozen cycles (the machine model's native delay
// profile: hits, hops, memory, trap dispatch); "far" salts in deadlines
// beyond the 1024-cycle wheel horizon so the overflow tier shows up. Run
// with
//
//	go test -bench FireDrain -benchmem ./internal/sim

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
	for _, mix := range []string{"near", "far"} {
		far := mix == "far"
		b.Run(mix, func(b *testing.B) {
			e := New()
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
