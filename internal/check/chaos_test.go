package check

import (
	"fmt"
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/protocol"
)

// chaosSchemes is the fault-injection matrix of the robustness suite:
// every registered scheme that caches shared data, at its registry-default
// pointer count.
func chaosSchemes() []struct {
	name     string
	scheme   coherence.Scheme
	pointers int
} {
	var out []struct {
		name     string
		scheme   coherence.Scheme
		pointers int
	}
	for _, info := range protocol.Schemes() {
		if info.SharedUncached {
			continue
		}
		name := info.Name
		if info.DefaultPointers > 1 {
			name = fmt.Sprintf("%s-%d", info.Name, info.DefaultPointers)
		}
		out = append(out, struct {
			name     string
			scheme   coherence.Scheme
			pointers int
		}{name, info.ID, info.DefaultPointers})
	}
	return out
}

func TestChaosMatrix(t *testing.T) {
	for _, tc := range chaosSchemes() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Chaos(tc.scheme, tc.pointers)
			if testing.Short() {
				cfg.Seeds = 2
			}
			rep := Run(cfg)
			if !rep.Ok() {
				for i, v := range rep.Violations {
					if i == 10 {
						t.Errorf("... and %d more", len(rep.Violations)-i)
						break
					}
					t.Error(v)
				}
			}
			if rep.Ops == 0 {
				t.Error("chaos harness recorded no operations")
			}
		})
	}
}
