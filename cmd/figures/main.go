// Command figures regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated Alewife machine, printing the
// same rows/series the paper reports. The experiment definitions (and the
// shape assertions that guard them) live in internal/experiments; this
// command renders them. Absolute cycle counts differ from the 1991 ASIM
// runs; the shapes — who wins, by what factor, where the crossovers fall —
// are the reproduction target (see EXPERIMENTS.md).
//
// Usage:
//
//	figures [-fig all|spec|model|7|8|9|10|scaling|ablation] [-procs 64]
//	        [-workers 0] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	limitless "limitless"
	"limitless/internal/experiments"
	"limitless/internal/stats"
)

var (
	figFlag     = flag.String("fig", "all", "which figure to regenerate: all, spec, memory, storage, model, 7, 8, 9, 10, scaling, ablation")
	procsFlag   = flag.Int("procs", 64, "processor count (the paper uses 64)")
	workersFlag = flag.Int("workers", 0, "simulations to run in parallel per batch (0 = GOMAXPROCS)")
	verbose     = flag.Bool("v", false, "print extended statistics per run")
)

func main() {
	flag.Parse()
	switch *figFlag {
	case "all":
		spec()
		memory()
		storage()
		model(*procsFlag)
		fig7(*procsFlag)
		fig8(*procsFlag)
		fig9(*procsFlag)
		fig10(*procsFlag)
		scaling()
		ablation(*procsFlag)
	case "spec":
		spec()
	case "memory":
		memory()
	case "storage":
		storage()
	case "model":
		model(*procsFlag)
	case "7":
		fig7(*procsFlag)
	case "8":
		fig8(*procsFlag)
	case "9":
		fig9(*procsFlag)
	case "10":
		fig10(*procsFlag)
	case "scaling":
		scaling()
	case "ablation":
		ablation(*procsFlag)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figFlag)
		os.Exit(2)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		os.Exit(1)
	}
	return v
}

// mustRunAll executes one batch of independent configurations through the
// bounded sweep pool, so multi-run tables fill all cores instead of
// simulating one machine at a time.
func mustRunAll(cfgs []limitless.Config, mk func(limitless.Config) limitless.Workload) []limitless.Result {
	return must(limitless.SweepN(cfgs, mk, *workersFlag))
}

func header(title string) {
	fmt.Println()
	fmt.Println("==", title)
	fmt.Println()
}

func detail(name string, r limitless.Result) {
	if !*verbose {
		return
	}
	fmt.Printf("   %-22s T_h=%.1f m=%.3f msgs=%d inv=%d busy=%d retry=%d hit=%.3f\n",
		name, r.AvgRemoteLatency, r.SoftwareFraction, r.Messages,
		r.Invalidations, r.Busies, r.Retries, r.HitRate)
}

func chart(bars []experiments.Bar) {
	var max int64
	for _, b := range bars {
		if b.Cycles() > max {
			max = b.Cycles()
		}
	}
	tb := stats.NewTable("Scheme", "Mcycles", "Execution Time")
	for _, b := range bars {
		tb.Row(b.Name, fmt.Sprintf("%.3f", float64(b.Cycles())/1e6),
			stats.Bar(float64(b.Cycles()), float64(max), 48))
		detail(b.Name, b.Result)
	}
	fmt.Println(tb)
}

// spec prints the protocol specification tables (paper Tables 1, 3, 4) as
// implemented; TestTable2Conformance verifies Table 2 row by row.
func spec() {
	header("Tables 1, 3, 4 — protocol specification (as implemented)")

	t1 := stats.NewTable("Component", "Name", "Meaning")
	t1.Row("Memory", "Read-Only", "Some number of caches have read-only copies of the data.")
	t1.Row("Memory", "Read-Write", "Exactly one cache has a read-write copy of the data.")
	t1.Row("Memory", "Read-Transaction", "Holding read request, update is in progress.")
	t1.Row("Memory", "Write-Transaction", "Holding write request, invalidation is in progress.")
	t1.Row("Cache", "Invalid", "Cache block may not be read or written.")
	t1.Row("Cache", "Read-Only", "Cache block may be read, but not written.")
	t1.Row("Cache", "Read-Write", "Cache block may be read or written.")
	fmt.Println(t1)

	t3 := stats.NewTable("Type", "Symbol", "Name", "Data?")
	rows := []struct {
		ty, sym, name string
		data          bool
	}{
		{"Cache to Memory", "RREQ", "Read Request", false},
		{"Cache to Memory", "WREQ", "Write Request", false},
		{"Cache to Memory", "REPM", "Replace Modified", true},
		{"Cache to Memory", "UPDATE", "Update", true},
		{"Cache to Memory", "ACKC", "Invalidate Acknowledge", false},
		{"Memory to Cache", "RDATA", "Read Data", true},
		{"Memory to Cache", "WDATA", "Write Data", true},
		{"Memory to Cache", "INV", "Invalidate", false},
		{"Memory to Cache", "BUSY", "Busy Signal", false},
	}
	for _, r := range rows {
		mark := ""
		if r.data {
			mark = "yes"
		}
		t3.Row(r.ty, r.sym, r.name, mark)
	}
	fmt.Println(t3)

	t4 := stats.NewTable("Meta State", "Description")
	t4.Row("Normal", "Directory being handled by hardware.")
	t4.Row("Trans-In-Progress", "Interlock. Software processing in progress.")
	t4.Row("Trap-On-Write", "Trap for WREQ, UPDATE, and REPM.")
	t4.Row("Trap-Always", "Trap for all incoming packets.")
	fmt.Println(t4)
}

// memory prints the directory-storage comparison: the paper's O(N) vs
// O(N^2) argument (Sections 1 and 3.1).
func memory() {
	header("Directory memory overhead — full-map O(N^2) vs LimitLESS O(N)")
	rows := experiments.MemoryModel()
	tb := stats.NewTable("Nodes", "Full-Map bits/entry", "Dir4NB bits/entry", "LimitLESS4 bits/entry")
	for i := 0; i < len(rows); i += 3 {
		tb.Row(rows[i].Nodes, rows[i].BitsPerEntry, rows[i+1].BitsPerEntry, rows[i+2].BitsPerEntry)
	}
	fmt.Println(tb)
	fmt.Println("Full-map storage per entry grows with the machine (N presence bits);")
	fmt.Println("the LimitLESS entry stays at a few log2(N)-bit pointers plus two meta")
	fmt.Println("bits and the Local Bit, overflowing into ordinary local memory only")
	fmt.Println("while a line's worker-set actually exceeds the hardware pointers.")
}

// storage prints the measured simulator-side counterpart of the memory
// model: bytes per directory entry under the packed inline/arena sharer
// sets against the boxed pointer-set oracle, from real Weather runs at
// the paper's machine size and the ROADMAP's P=256 / P=1024 scale
// points. The packed header is 24 B at every machine size; the boxed
// cost grows with N (full-map) or stays at the Limited object's ~72 B
// minimum, which is the Table-2-style argument restated for the
// simulator's own memory.
func storage() {
	header("Directory storage — measured bytes/entry, packed vs boxed (Weather)")
	tb := stats.NewTable("Nodes", "Scheme", "Packed B/entry", "Boxed B/entry", "Reduction")
	for _, r := range must(experiments.Storage()) {
		tb.Row(r.Nodes, r.Scheme, fmt.Sprintf("%.1f", r.Packed), fmt.Sprintf("%.1f", r.Boxed),
			fmt.Sprintf("%.2fx", r.Reduction()))
	}
	fmt.Println(tb)
	fmt.Println("Packed sets hold up to four 16-bit pointers inline in the 24-byte entry")
	fmt.Println("header and spill wide worker-sets to words from a per-store arena; the")
	fmt.Println("boxed oracle allocates a heap object per entry, so its full-map cost")
	fmt.Println("grows with the machine while the packed header does not.")
}

func model(procs int) {
	header("Section 3.1 — analytic model: T_eff = T_h + m*T_s")
	rows := must(experiments.Model(procs))
	tb := stats.NewTable("WorkerSet", "T_s", "m", "T_h(full)", "T_eff(model)", "T_eff(measured)", "err%")
	for _, r := range rows {
		tb.Row(r.WorkerSet, r.Ts, fmt.Sprintf("%.3f", r.M), fmt.Sprintf("%.1f", r.Th),
			fmt.Sprintf("%.1f", r.Predicted), fmt.Sprintf("%.1f", r.Measured),
			fmt.Sprintf("%+.0f", r.ErrPct()))
	}
	fmt.Println(tb)
	fmt.Println("Paper's example: T_h=35, m=3%, T_s=100 -> 10% slower than full-map.")
}

func fig7(procs int) {
	header(fmt.Sprintf("Figure 7 — Static Multigrid, %d Processors", procs))
	chart(must(experiments.Fig7(procs)))
	fmt.Println("Paper: all four bars approximately equal (small worker-sets).")
}

func fig8(procs int) {
	header(fmt.Sprintf("Figure 8 — Weather (unoptimized hot-spot), %d Processors, limited and full-map", procs))
	unopt, opt, err := experiments.Fig8(procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	chart(unopt)
	fmt.Println("Paper: every limited directory far slower than full-map (hot-spot thrash).")
	fmt.Println()
	fmt.Println("-- With the hot variable optimized (flagged read-only):")
	chart(opt)
	fmt.Println("Paper: optimized, the limited directory performs just as well as full-map.")
}

func fig9(procs int) {
	header(fmt.Sprintf("Figure 9 — Weather, %d Processors, LimitLESS with 25-150 cycle emulation latencies", procs))
	chart(must(experiments.Fig9(procs)))
	fmt.Println("Paper: LimitLESS about as fast as full-map at every T_s, far under Dir4NB;")
	fmt.Println("       at T_s=25 LimitLESS slightly beat full-map (trap-induced back-off).")
}

func fig10(procs int) {
	header(fmt.Sprintf("Figure 10 — Weather, %d Processors, LimitLESS with 1, 2, and 4 hardware pointers", procs))
	chart(must(experiments.Fig10(procs)))
	fmt.Println("Paper: graceful degradation as pointers shrink; one pointer especially bad")
	fmt.Println("       (some Weather variables have a worker-set of exactly two processors).")
}

func scaling() {
	header("Section 3.1 — scalability: LimitLESS overhead as T_h grows past T_s")
	rows := must(experiments.Scaling())
	tb := stats.NewTable("HopLatency", "T_h(full)", "Full-map Mcyc", "LimitLESS4 Mcyc", "overhead")
	for _, r := range rows {
		tb.Row(r.HopLatency, fmt.Sprintf("%.1f", r.Th),
			fmt.Sprintf("%.4f", float64(r.FullMap.Cycles)/1e6),
			fmt.Sprintf("%.4f", float64(r.LimitLESS.Cycles)/1e6),
			fmt.Sprintf("%.2fx", r.Overhead()))
	}
	fmt.Println(tb)
	fmt.Println("Paper: \"in much larger systems the internode communication latency will")
	fmt.Println("be much larger than the processors' interrupt handling latency\"; as T_h")
	fmt.Println("outgrows T_s = 100, the relative LimitLESS overhead falls away.")
}

// ablation: design-choice studies beyond the paper's figures.
func ablation(procs int) {
	header("Ablations — design choices (beyond the paper's figures)")

	fmt.Println("-- Alternative schemes on Weather:")
	schemeNames := []string{"Chained", "LimitLESS4", "SoftwareOnly", "PrivateOnly", "Full-Map"}
	schemeRes := mustRunAll([]limitless.Config{
		{Procs: procs, Scheme: limitless.Chained, Pointers: 1},
		{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4},
		{Procs: procs, Scheme: limitless.SoftwareOnly, Pointers: 1},
		{Procs: procs, Scheme: limitless.PrivateOnly},
		{Procs: procs, Scheme: limitless.FullMap},
	}, func(c limitless.Config) limitless.Workload { return limitless.Weather(c.Procs) })
	bars := make([]experiments.Bar, len(schemeRes))
	for i, r := range schemeRes {
		bars[i] = experiments.Bar{Name: schemeNames[i], Result: r}
	}
	chart(bars)

	fmt.Println("-- Block multithreading (SPARCLE contexts): two remote-reference streams")
	fmt.Println("   per node, run sequentially on 1 context vs overlapped on 2:")
	tb := stats.NewTable("Contexts", "Mcycles", "Context switches")
	for _, ctxs := range []int{1, 2} {
		cycles, switches := experiments.ContextStudy(procs, ctxs)
		tb.Row(ctxs, fmt.Sprintf("%.3f", float64(cycles)/1e6), switches)
	}
	fmt.Println(tb)
	fmt.Println("(Same total work; the second context hides remote miss latency, as in Section 2.)")

	fmt.Println()
	fmt.Println("-- FFT butterfly exchange (worker-set 2, partner changes per stage):")
	tbf := stats.NewTable("Scheme", "Mcycles", "Traps", "Evictions")
	fftNames := []string{"Dir1NB", "LimitLESS1", "LimitLESS4", "Full-Map"}
	fftRes := mustRunAll([]limitless.Config{
		{Procs: procs, Scheme: limitless.LimitedNB, Pointers: 1},
		{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 1},
		{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4},
		{Procs: procs, Scheme: limitless.FullMap},
	}, func(c limitless.Config) limitless.Workload { return limitless.FFT(c.Procs, 2) })
	for i, r := range fftRes {
		tbf.Row(fftNames[i], fmt.Sprintf("%.3f", float64(r.Cycles)/1e6), r.Traps, r.Evictions)
	}
	fmt.Println(tbf)

	fmt.Println()
	fmt.Println("-- Interconnect (ASIM: circuit/packet switching, mesh/Omega), Weather, LimitLESS4:")
	tb3 := stats.NewTable("Topology", "Mcycles", "Avg packet latency")
	topos := []string{"mesh", "circuit", "omega", "ideal"}
	topoCfgs := make([]limitless.Config, len(topos))
	for i, topo := range topos {
		topoCfgs[i] = limitless.Config{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, Topology: topo}
	}
	topoRes := mustRunAll(topoCfgs, func(c limitless.Config) limitless.Workload { return limitless.Weather(c.Procs) })
	for i, r := range topoRes {
		tb3.Row(topos[i], fmt.Sprintf("%.3f", float64(r.Cycles)/1e6), fmt.Sprintf("%.1f", r.NetworkAvgLatency))
	}
	fmt.Println(tb3)

	fmt.Println()
	fmt.Println("-- Modify-grant optimization (paper footnote 1), Weather, LimitLESS4:")
	tb4 := stats.NewTable("Variant", "Mcycles", "Messages", "Flits")
	mgNames := []string{"WDATA grants", "MODG grants"}
	mgRes := mustRunAll([]limitless.Config{
		{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, ModifyGrant: false},
		{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4, ModifyGrant: true},
	}, func(c limitless.Config) limitless.Workload { return limitless.Weather(c.Procs) })
	for i, r := range mgRes {
		tb4.Row(mgNames[i], fmt.Sprintf("%.3f", float64(r.Cycles)/1e6), r.Messages, r.NetworkFlits)
	}
	fmt.Println(tb4)

	fmt.Println()
	fmt.Println("-- Migratory data, ownership hand-off stress (token ring):")
	tb2 := stats.NewTable("Scheme", "Mcycles", "Invalidations", "Traps")
	migNames := []string{"Full-Map", "LimitLESS4", "Chained"}
	migRes := mustRunAll([]limitless.Config{
		{Procs: procs, Scheme: limitless.FullMap},
		{Procs: procs, Scheme: limitless.LimitLESS, Pointers: 4},
		{Procs: procs, Scheme: limitless.Chained, Pointers: 1},
	}, func(c limitless.Config) limitless.Workload { return limitless.Migratory(c.Procs, 2) })
	for i, r := range migRes {
		tb2.Row(migNames[i], fmt.Sprintf("%.3f", float64(r.Cycles)/1e6), r.Invalidations, r.Traps)
	}
	fmt.Println(tb2)

	fmt.Println()
	fmt.Println("-- FIFO directory eviction (Section 6) on a rotating-reader block:")
	plain, fifo, err := experiments.FIFOEvictComparison(procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tb5 := stats.NewTable("Handler", "Traps", "Invalidations", "Peak software vectors")
	tb5.Row("software vector (default)", plain.Traps, plain.Invalidations, plain.SoftwareVectorsPeak)
	tb5.Row("FIFO eviction", fifo.Traps, fifo.Invalidations, fifo.SoftwareVectorsPeak)
	fmt.Println(tb5)
	fmt.Println("The default handler accumulates a full-map vector of dead readers that")
	fmt.Println("the final write must invalidate in one burst (on its critical path);")
	fmt.Println("FIFO eviction keeps zero software state and spreads single evictions of")
	fmt.Println("readers that were never coming back — the Section 6 trade for data")
	fmt.Println("known to migrate.")
}
