// Command alewife runs a single simulation of the Alewife machine under a
// chosen coherence scheme and workload and prints the result.
//
// Usage:
//
//	alewife [-scheme limitless] [-pointers 4] [-ts 50] [-procs 64]
//	        [-workload weather|weather-opt|multigrid|synthetic|migratory|locks|prodcons]
//	        [-workerset 8] [-contexts 1] [-trace file] [-verify]
//	        [-faults seed:key=value,...] [-watchdog cycles]
//	        [-cpuprofile file] [-memprofile file]
//	alewife -list-schemes
//	alewife -check-tables
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	limitless "limitless"
)

var (
	schemeFlag   = flag.String("scheme", "limitless", "full-map, limited, limitless, software-only, private-only, chained")
	pointersFlag = flag.Int("pointers", 4, "hardware directory pointers (the i of Dir_iNB / LimitLESS_i)")
	tsFlag       = flag.Int64("ts", 50, "T_s: software trap service latency in cycles")
	procsFlag    = flag.Int("procs", 64, "processor count")
	wlFlag       = flag.String("workload", "weather", "weather, weather-opt, multigrid, synthetic, migratory, locks, prodcons")
	wsFlag       = flag.Int("workerset", 8, "worker-set size for the synthetic workload (1 to procs-1)")
	ctxFlag      = flag.Int("contexts", 1, "processor hardware contexts (every workload fills context 0 only, so the value changes no result)")
	traceFlag    = flag.String("trace", "", "replay a trace file instead of a built-in workload")
	verifyFlag   = flag.Bool("verify", false, "run the coherence checker after the workload finishes")
	faultsFlag   = flag.String("faults", "", "deterministic fault injection, \"seed:key=value,...\" (keys: delay, delaymax, dup, dupdelay, stall, stallperiod, stallcycles, trap, trapextra, drop, corrupt, rto, rmax; drop/corrupt arm the reliable transport)")
	watchdogFlag = flag.Int64("watchdog", 0, "halt with a diagnostic dump after this many cycles without forward progress (0 = off)")
	cpuProfFlag  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfFlag  = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
	listFlag     = flag.Bool("list-schemes", false, "list the registered coherence schemes and exit")
	checkFlag    = flag.Bool("check-tables", false, "run the static protocol-table checker and exit (non-zero on any hole)")
)

func main() {
	flag.Parse()

	if *listFlag {
		for _, info := range limitless.Schemes() {
			ptrs := "pointers ignored"
			if info.NeedsPointers {
				ptrs = fmt.Sprintf("default %d pointer(s)", info.DefaultPointers)
			}
			fmt.Printf("%-14s %s (%s)\n", info.Scheme, info.Doc, ptrs)
		}
		return
	}
	if *checkFlag {
		probs := limitless.CheckProtocolTables()
		for _, p := range probs {
			fmt.Fprintln(os.Stderr, p)
		}
		if len(probs) > 0 {
			fmt.Fprintf(os.Stderr, "alewife: %d protocol-table problem(s)\n", len(probs))
			os.Exit(1)
		}
		fmt.Println("protocol tables: exhaustive, no unreachable rows, no dead declarations")
		return
	}

	if *procsFlag > limitless.MaxProcs {
		fmt.Fprintf(os.Stderr,
			"alewife: -procs %d exceeds the packed directory's %d-node limit (node IDs are 16-bit); use at most %d processors\n",
			*procsFlag, limitless.MaxProcs, limitless.MaxProcs)
		os.Exit(2)
	}
	// The header below echoes these two, so a value the facade would
	// replace by its default is refused rather than misreported.
	if *pointersFlag < 1 {
		fmt.Fprintf(os.Stderr, "alewife: -pointers %d: need at least 1 hardware pointer\n", *pointersFlag)
		os.Exit(2)
	}
	if *tsFlag < 1 {
		fmt.Fprintf(os.Stderr, "alewife: -ts %d: T_s must be at least 1 cycle\n", *tsFlag)
		os.Exit(2)
	}
	// Each synthetic variable is read by the -workerset processors that
	// follow its owner, so the size must leave the owner out.
	if *traceFlag == "" && *wlFlag == "synthetic" && (*wsFlag < 1 || *wsFlag > *procsFlag-1) {
		fmt.Fprintf(os.Stderr, "alewife: -workerset %d: the synthetic workload needs a worker-set of 1 to %d (procs-1) readers\n",
			*wsFlag, *procsFlag-1)
		os.Exit(2)
	}
	faultSpec, err := limitless.NormalizeFaults(*faultsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alewife: -faults:", err)
		os.Exit(2)
	}

	cfg := limitless.Config{
		Procs:          *procsFlag,
		Scheme:         limitless.Scheme(*schemeFlag),
		Pointers:       *pointersFlag,
		TrapService:    *tsFlag,
		Contexts:       *ctxFlag,
		Verify:         *verifyFlag,
		Faults:         *faultsFlag,
		WatchdogCycles: *watchdogFlag,
	}

	var wl limitless.Workload
	if *traceFlag != "" {
		f, err := os.Open(*traceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		wl, err = limitless.FromTrace(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Procs = wl.Procs()
	} else {
		switch *wlFlag {
		case "weather":
			wl = limitless.Weather(*procsFlag)
		case "weather-opt":
			wl = limitless.WeatherOptimized(*procsFlag)
		case "multigrid":
			wl = limitless.Multigrid(*procsFlag)
		case "synthetic":
			wl = limitless.Synthetic(*procsFlag, *wsFlag)
		case "migratory":
			wl = limitless.Migratory(*procsFlag, 2)
		case "locks":
			cfg.FIFOLocks = []limitless.Addr{limitless.LockAddr()}
			wl = limitless.LockContention(*procsFlag, 4)
		case "prodcons":
			cfg.UpdateMode = []limitless.Addr{limitless.ProducerConsumerAddr()}
			wl = limitless.ProducerConsumer(*procsFlag, 4)
		default:
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wlFlag)
			os.Exit(2)
		}
	}

	if *cpuProfFlag != "" {
		f, err := os.Create(*cpuProfFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	// Open the memory-profile file before the run so a bad path fails fast
	// instead of after minutes of simulation.
	var memProf *os.File
	if *memProfFlag != "" {
		f, err := os.Create(*memProfFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		memProf = f
	}

	res, err := limitless.Run(cfg, wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		os.Exit(1)
	}

	if memProf != nil {
		runtime.GC() // settle the heap so the profile shows live + cumulative allocation accurately
		if err := pprof.WriteHeapProfile(memProf); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("machine:   %d processors, %s with %d pointers, T_s=%d, %d context(s)\n",
		cfg.Procs, cfg.Scheme, cfg.Pointers, cfg.TrapService, maxInt(cfg.Contexts, 1))
	if faultSpec != "" {
		fmt.Printf("faults:    %s\n", faultSpec)
	}
	if cfg.WatchdogCycles > 0 {
		fmt.Printf("watchdog:  %d cycles without progress halts the run\n", cfg.WatchdogCycles)
	}
	fmt.Printf("cycles:    %d (%.3f Mcycles)\n", res.Cycles, float64(res.Cycles)/1e6)
	fmt.Printf("T_h:       %.1f cycles average remote access latency\n", res.AvgRemoteLatency)
	fmt.Printf("hit rate:  %.3f\n", res.HitRate)
	fmt.Printf("directory: %d bytes live (%.1f B/entry)\n", res.DirectoryBytes, res.DirectoryBytesPerEntry)
	fmt.Printf("misses:    %d remote, %d local\n", res.RemoteMisses, res.LocalMisses)
	fmt.Printf("messages:  %d protocol messages, %d invalidations\n", res.Messages, res.Invalidations)
	fmt.Printf("software:  %d traps (m=%.3f), %d trap cycles\n", res.Traps, res.SoftwareFraction, res.TrapCycles)
	fmt.Printf("pressure:  %d pointer overflows, %d evictions, %d busies, %d retries\n",
		res.PointerOverflows, res.Evictions, res.Busies, res.Retries)
	fmt.Printf("network:   %.1f cycles average packet latency\n", res.NetworkAvgLatency)
	if res.ContextSwitches > 0 {
		fmt.Printf("switches:  %d context switches\n", res.ContextSwitches)
	}
	if res.DupSuppressed > 0 || res.Violations > 0 {
		fmt.Printf("faulting:  %d duplicates suppressed, %d protocol violations recorded\n",
			res.DupSuppressed, res.Violations)
	}
	if fs := res.FaultStats; fs != (limitless.FaultStats{}) {
		fmt.Printf("injected:  %d delays, %d dups, %d stalls, %d slow traps, %d drops, %d corrupts; %d retransmits\n",
			fs.Delays, fs.Dups, fs.Stalls, fs.Traps, fs.Drops, fs.Corrupts, fs.Retransmits)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
