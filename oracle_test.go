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

// oracleMatrix runs Weather at P=16 under mask on every scheme.
func oracleMatrix(t *testing.T, mask machine.Oracles) {
	for _, scheme := range allSchemes(t) {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			cfg := limitless.Config{Procs: 16, Scheme: scheme, Pointers: 4, TrapService: 50, Verify: true}
			runOracles(t, cfg, weather16, mask, string(scheme))
		})
	}
}

func TestSchedulerEquivalence(t *testing.T)   { oracleMatrix(t, machine.OracleHeap) }
func TestStorageModeEquivalence(t *testing.T) { oracleMatrix(t, machine.OracleBoxed) }
func TestAllOraclesEquivalence(t *testing.T)  { oracleMatrix(t, machine.AllOracles) }

// oraclePins holds the canonical Weather P=16 pin — 10411 cycles — on the
// fast paths, under bit alone and under every oracle at once.
func oraclePins(t *testing.T, bit machine.Oracles) {
	const want = 10411
	for _, mask := range []machine.Oracles{bit, machine.AllOracles} {
		cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4, TrapService: 50, Verify: true}
		res := runOracles(t, cfg, weather16, mask, "weather16")
		if res.Cycles != want {
			t.Errorf("oracles=%02b: cycles = %d, want %d", mask, res.Cycles, want)
		}
	}
}

func TestStorageModePins(t *testing.T) { oraclePins(t, machine.OracleBoxed) }

// oracleTrial builds one random configuration and workload from fuzz bytes
// and checks it under the bits of must plus the nonzero mask maskB picks.
// Its axes are scheme, four workloads, pointers, T_s, ModifyGrant and
// Contexts of one or two; either way each processor runs one live
// context, since every facade workload fills context 0 only.
func oracleTrial(t testing.TB, must machine.Oracles, maskB, schemeB, wlB, knobsB byte) {
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

	cfg := limitless.Config{
		Procs:       procs,
		Scheme:      scheme,
		Pointers:    1 + int(knobsB>>4)%4,
		TrapService: 25 + int64(knobsB%4)*25,
		ModifyGrant: knobsB&1 != 0,
		Contexts:    1 + int(knobsB>>2)%2,
	}
	label := fmt.Sprintf("%s/%s/ptrs=%d/ts=%d/mg=%v/ctx=%d",
		scheme, wlName, cfg.Pointers, cfg.TrapService, cfg.ModifyGrant, cfg.Contexts)
	runOracles(t, cfg, mk, mask, label)
}

// oracleRandom replays twelve seeded random trials that all include must.
func oracleRandom(t *testing.T, must machine.Oracles, seed int64) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 12; round++ {
		var b [4]byte
		rng.Read(b[:])
		oracleTrial(t, must, b[0], b[1], b[2], b[3])
	}
}

func TestStorageModeEquivalenceRandom(t *testing.T) {
	oracleRandom(t, machine.OracleBoxed, 0x9acced)
}

// fuzzOracles lets the fuzzer pick the mask (always including must), the
// scheme, the workload and the protocol knobs.
func fuzzOracles(f *testing.F, must machine.Oracles) {
	f.Add(byte(2), byte(2), byte(0), byte(0x42)) // all oracles, limitless/weather
	f.Add(byte(0), byte(0), byte(1), byte(0x10)) // heap, full-map/synthetic
	f.Add(byte(5), byte(5), byte(2), byte(0xff)) // all oracles, chained/migratory
	f.Add(byte(1), byte(3), byte(3), byte(0x07)) // boxed, software-only/multigrid
	f.Fuzz(func(t *testing.T, maskB, schemeB, wlB, knobsB byte) {
		oracleTrial(t, must, maskB, schemeB, wlB, knobsB)
	})
}

func FuzzOracleEquivalence(f *testing.F)      { fuzzOracles(f, 0) }
func FuzzStorageModeEquivalence(f *testing.F) { fuzzOracles(f, machine.OracleBoxed) }
