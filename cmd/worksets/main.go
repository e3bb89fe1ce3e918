// Command worksets profiles shared-memory worker-sets, the Section 6
// extension: "the handler can record the worker-set of each variable that
// overflows its hardware directory. This information can be fed back to
// the programmer or compiler to help recognize and minimize the use of
// such variables."
//
// It runs a workload under LimitLESS, observing every software-handled
// packet, and prints the variables with the widest recorded worker-sets —
// exactly the tool that would have found Weather's hot-spot variable.
//
// Usage:
//
//	worksets [-procs 64] [-pointers 4] [-workload weather|multigrid|synthetic] [-top 10]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/machine"
	"limitless/internal/mesh"
	"limitless/internal/proc"
	"limitless/internal/stats"
	"limitless/internal/workload"
)

var (
	procsFlag    = flag.Int("procs", 64, "processor count")
	pointersFlag = flag.Int("pointers", 4, "hardware pointers")
	wlFlag       = flag.String("workload", "weather", "weather, multigrid, synthetic")
	topFlag      = flag.Int("top", 10, "variables to report")
)

func main() {
	flag.Parse()
	if *procsFlag < 1 {
		fmt.Fprintf(os.Stderr, "worksets: -procs %d: need at least 1 processor\n", *procsFlag)
		os.Exit(2)
	}
	if *pointersFlag < 1 {
		fmt.Fprintf(os.Stderr, "worksets: -pointers %d: need at least 1 hardware pointer\n", *pointersFlag)
		os.Exit(2)
	}

	params := coherence.DefaultParams(*procsFlag)
	params.Scheme = coherence.LimitLESS
	params.Pointers = *pointersFlag
	w, h := machine.Shape(*procsFlag)
	m := machine.New(machine.Config{Width: w, Height: h, Contexts: 1, Params: params})

	var wls []proc.Workload
	switch *wlFlag {
	case "weather":
		wls = workload.Weather(workload.DefaultWeather(*procsFlag))
	case "multigrid":
		wls = workload.Multigrid(workload.DefaultMultigrid(*procsFlag))
	case "synthetic":
		wls = workload.Synthetic(workload.DefaultSynthetic(*procsFlag, 8))
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wlFlag)
		os.Exit(2)
	}

	// Observe every overflow trap machine-wide.
	type record struct {
		maxWS int
		traps int
	}
	seen := make(map[directory.Addr]*record)
	for _, n := range m.Nodes {
		if n.SW == nil {
			continue
		}
		n.SW.SetObserver(func(_ mesh.NodeID, msg *coherence.Msg, ws int) {
			r := seen[msg.Addr]
			if r == nil {
				r = &record{}
				seen[msg.Addr] = r
			}
			r.traps++
			if ws > r.maxWS {
				r.maxWS = ws
			}
		})
	}

	for i, wl := range wls {
		m.SetWorkload(mesh.NodeID(i), 0, wl)
	}
	res := m.Run()

	type entry struct {
		addr directory.Addr
		rec  *record
	}
	var entries []entry
	for a, r := range seen {
		entries = append(entries, entry{a, r})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].rec.maxWS != entries[j].rec.maxWS {
			return entries[i].rec.maxWS > entries[j].rec.maxWS
		}
		return entries[i].addr < entries[j].addr
	})

	fmt.Printf("workload %s on %d processors, LimitLESS%d: %d cycles, %d traps\n\n",
		*wlFlag, *procsFlag, *pointersFlag, res.Cycles, res.Coherence.Traps)
	tb := stats.NewTable("Address", "Home", "MaxWorkerSet", "Traps", "Advice")
	for i, e := range entries {
		if i >= *topFlag {
			break
		}
		advice := ""
		if e.rec.maxWS >= *procsFlag*3/4 {
			advice = "hot spot: consider read-only distribution"
		} else if e.rec.maxWS > 2**pointersFlag {
			advice = "widely shared: consider restructuring"
		}
		tb.Row(fmt.Sprintf("%#x", uint64(e.addr)), int(coherence.HomeOf(e.addr)),
			e.rec.maxWS, e.rec.traps, advice)
	}
	fmt.Println(tb)
	if len(entries) == 0 {
		fmt.Println("no directory overflows: every worker-set fit in hardware")
	}

	// The machine-wide worker-set census (per-block high-water marks),
	// the measurement behind "many shared data structures have a small
	// worker-set".
	census := m.WorkerSetCensus()
	fmt.Printf("\nworker-set census over %d shared blocks: %s\n", census.Count(), census)
	fmt.Printf("p50 <= %d, p90 <= %d, p99 <= %d\n",
		census.Percentile(50), census.Percentile(90), census.Percentile(99))
}
