// Command tracegen generates a uniprocessor trace with embedded
// synchronization information (Section 5.1) for the post-mortem scheduler.
//
// Usage:
//
//	tracegen [-threads 64] [-phases 4] [-hotreads 4] [-optimize] [-o weather.trace]
package main

import (
	"flag"
	"fmt"
	"os"

	"limitless/internal/trace"
)

var (
	threadsFlag = flag.Int("threads", 64, "trace threads (one per simulated processor)")
	phasesFlag  = flag.Int("phases", 4, "barrier-separated phases")
	hotFlag     = flag.Int("hotreads", 4, "hot-variable reads per thread per phase")
	optFlag     = flag.Bool("optimize", false, "flag the hot variable read-only (the paper's optimization)")
	outFlag     = flag.String("o", "weather.trace", "output file")
)

func main() {
	flag.Parse()
	// The generator turns threads or phases below 1 into a one-event trace
	// and reads a negative hot-read count as 0, so a value below its floor
	// is refused before any file is created.
	for _, f := range []struct {
		name     string
		v, floor int
		need     string
	}{
		{"threads", *threadsFlag, 1, "at least 1 thread"},
		{"phases", *phasesFlag, 1, "at least 1 phase"},
		{"hotreads", *hotFlag, 0, "a hot-read count of 0 or more"},
	} {
		if f.v < f.floor {
			fmt.Fprintf(os.Stderr, "tracegen: -%s %d: need %s\n", f.name, f.v, f.need)
			os.Exit(2)
		}
	}
	cfg := trace.DefaultGen(*threadsFlag)
	cfg.Phases = *phasesFlag
	cfg.HotReads = *hotFlag
	cfg.OptimizeHot = *optFlag
	events := trace.Generate(cfg)
	if err := trace.Validate(events); err != nil {
		fmt.Fprintln(os.Stderr, "generated trace invalid:", err)
		os.Exit(1)
	}
	f, err := os.Create(*outFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := trace.Write(f, events); err != nil {
		fmt.Fprintln(os.Stderr, "writing trace:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d events, %d threads, %d phases to %s\n",
		len(events), trace.Threads(events), *phasesFlag, *outFlag)
}
