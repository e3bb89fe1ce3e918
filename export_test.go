package limitless

import (
	"limitless/internal/machine"
	"limitless/internal/proc"
)

// WrapPrograms returns w with every per-processor program passed through
// wrap when the workload is built, so tests can interpose on the
// processor's Next calls.
func WrapPrograms(w Workload, wrap func(proc.Workload) proc.Workload) Workload {
	build := w.build
	w.build = func() []proc.Workload {
		wls := build()
		for i, wl := range wls {
			wls[i] = wrap(wl)
		}
		return wls
	}
	return w
}

// WithOracles returns cfg with the reference implementations in mask
// selected in place of the fast paths.
func WithOracles(cfg Config, mask machine.Oracles) Config {
	cfg.oracles = mask
	return cfg
}
