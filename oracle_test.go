package limitless_test

import (
	"fmt"
	"math/rand"
	"testing"

	limitless "limitless"
	"limitless/internal/machine"
)

// The reference configuration: every fast path keeps its slow twin behind
// one bit of machine.Oracles, and a run under any mask must reproduce the
// fast paths' Result bit-identically. One matrix, one seeded random trial
// and one fuzz body check it. The per-oracle test names are the matrix's
// columns, named after the knobs the bits replaced.

// allSchemes enumerates the six directory organizations by their public
// names, in registry order.
func allSchemes(t testing.TB) []limitless.Scheme {
	var out []limitless.Scheme
	for _, info := range limitless.Schemes() {
		out = append(out, info.Scheme)
	}
	if len(out) != 6 {
		t.Fatalf("expected 6 registered schemes, have %d", len(out))
	}
	return out
}

// runOracles runs cfg on the fast paths and under mask, fails unless the
// two Results agree in every field, and returns the fast-path Result.
// Boxed storage may differ only in the measured directory footprint.
func runOracles(t testing.TB, cfg limitless.Config, mk func() limitless.Workload, mask machine.Oracles, label string) limitless.Result {
	t.Helper()
	want, err := limitless.Run(cfg, mk())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := limitless.Run(limitless.WithOracles(cfg, mask), mk())
	if err != nil {
		t.Fatalf("%s oracles=%02b: %v", label, mask, err)
	}
	if mask&machine.OracleBoxed != 0 {
		got.DirectoryBytes, got.DirectoryBytesPerEntry = want.DirectoryBytes, want.DirectoryBytesPerEntry
	}
	if got != want {
		t.Fatalf("%s: oracles=%02b disagree with the fast paths:\nfast:   %+v\noracle: %+v", label, mask, want, got)
	}
	return want
}

func weather16() limitless.Workload { return limitless.Weather(16) }

// oracleMatrix runs Weather at P=16 under mask on every scheme, on one
// engine and at 2 and 4 windowed shards, each shard on its own worker.
func oracleMatrix(t *testing.T, mask machine.Oracles) {
	for _, scheme := range allSchemes(t) {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			for _, shards := range []int{0, 2, 4} {
				cfg := limitless.Config{Procs: 16, Scheme: scheme, Pointers: 4, TrapService: 50,
					Verify: true, Shards: shards, ShardWorkers: shards}
				runOracles(t, cfg, weather16, mask, fmt.Sprintf("%s/shards=%d", scheme, shards))
			}
		})
	}
}

func TestSchedulerEquivalence(t *testing.T)   { oracleMatrix(t, machine.OracleHeap) }
func TestStorageModeEquivalence(t *testing.T) { oracleMatrix(t, machine.OracleBoxed) }
func TestAllOraclesEquivalence(t *testing.T)  { oracleMatrix(t, machine.AllOracles) }

// oraclePins holds the canonical Weather P=16 pin — 10411 cycles on one
// engine and at four shards on four workers — on the fast paths, under bit
// alone and under every oracle at once.
func oraclePins(t *testing.T, bit machine.Oracles) {
	for _, mask := range []machine.Oracles{bit, machine.AllOracles} {
		for _, pin := range []struct {
			shards int
			want   int64
		}{{0, 10411}, {4, 10411}} {
			cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50,
				Verify: true, Shards: pin.shards, ShardWorkers: pin.shards}
			res := runOracles(t, cfg, weather16, mask, fmt.Sprintf("shards=%d", pin.shards))
			if res.Cycles != pin.want {
				t.Errorf("shards=%d: cycles = %d, want %d", pin.shards, res.Cycles, pin.want)
			}
		}
	}
}

func TestStorageModePins(t *testing.T) { oraclePins(t, machine.OracleBoxed) }

// oracleTrial builds one random configuration and workload from fuzz bytes
// and checks it under the bits of must plus the nonzero mask maskB picks.
// Its axes are scheme, four workloads, engine (one engine, or two or four
// windowed shards on as many workers), pointers, T_s, ModifyGrant and one
// or two hardware contexts.
func oracleTrial(t testing.TB, must machine.Oracles, maskB, schemeB, wlB, shardsB, knobsB byte) {
	mask := must | machine.Oracles(1+int(maskB)%int(machine.AllOracles))
	schemes := allSchemes(t)
	scheme := schemes[int(schemeB)%len(schemes)]
	const procs = 16

	var mk func() limitless.Workload
	var wlName string
	switch wlB % 4 {
	case 0:
		mk, wlName = weather16, "weather"
	case 1:
		mk = func() limitless.Workload { return limitless.Synthetic(procs, 2+int(knobsB)%8) }
		wlName = "synthetic"
	case 2:
		mk = func() limitless.Workload { return limitless.Migratory(procs, 2) }
		wlName = "migratory"
	default:
		mk = func() limitless.Workload { return limitless.Multigrid(procs) }
		wlName = "multigrid"
	}

	shards := []int{0, 2, 4}[int(shardsB)%3]
	cfg := limitless.Config{
		Procs:        procs,
		Scheme:       scheme,
		Pointers:     1 + int(knobsB>>4)%4,
		TrapService:  25 + int64(knobsB%4)*25,
		ModifyGrant:  knobsB&1 != 0,
		Contexts:     1 + int(knobsB>>2)%2,
		Shards:       shards,
		ShardWorkers: shards,
	}
	label := fmt.Sprintf("%s/%s/ptrs=%d/ts=%d/mg=%v/ctx=%d/shards=%d",
		scheme, wlName, cfg.Pointers, cfg.TrapService, cfg.ModifyGrant, cfg.Contexts, cfg.Shards)
	runOracles(t, cfg, mk, mask, label)
}

// oracleRandom replays twelve seeded random trials that all include must.
func oracleRandom(t *testing.T, must machine.Oracles, seed int64) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 12; round++ {
		var b [5]byte
		rng.Read(b[:])
		oracleTrial(t, must, b[0], b[1], b[2], b[3], b[4])
	}
}

func TestStorageModeEquivalenceRandom(t *testing.T) {
	oracleRandom(t, machine.OracleBoxed, 0x9acced)
}

// fuzzOracles lets the fuzzer pick the mask (always including must), the
// scheme, the workload, the engine and the protocol knobs.
func fuzzOracles(f *testing.F, must machine.Oracles) {
	f.Add(byte(2), byte(2), byte(0), byte(0), byte(0x42))    // all oracles, limitless/weather/one engine
	f.Add(byte(0), byte(0), byte(1), byte(1), byte(0x10))    // heap, full-map/synthetic/2 shards
	f.Add(byte(5), byte(5), byte(2), byte(0x11), byte(0xff)) // all oracles, chained/migratory/4 shards
	f.Add(byte(1), byte(3), byte(3), byte(2), byte(0x07))    // boxed, software-only/multigrid/4 shards
	f.Fuzz(func(t *testing.T, maskB, schemeB, wlB, shardsB, knobsB byte) {
		oracleTrial(t, must, maskB, schemeB, wlB, shardsB, knobsB)
	})
}

func FuzzOracleEquivalence(f *testing.F)      { fuzzOracles(f, 0) }
func FuzzStorageModeEquivalence(f *testing.F) { fuzzOracles(f, machine.OracleBoxed) }
