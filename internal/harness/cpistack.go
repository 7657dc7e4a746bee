package harness

import (
	"context"
	"fmt"

	"localbp/internal/metrics"
	"localbp/internal/obs"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// Ext2 runs one representative workload per category under the paper's
// headline scheme (forward-coalesce) with CPI-stack accounting and renders
// where every cycle after the warm-up (Options.Warmup) went. The
// attribution is audited inside the core: a run whose buckets do not sum to
// its total cycles aborts with InvCPIAccounting.
func Ext2(ctx context.Context, r *Runner) (string, error) {
	spec, err := SpecFor("forward-coalesce")
	if err != nil {
		return "", err
	}
	spec.Core.WarmupInsts = uint64(r.Opts.Warmup)
	header := append([]string{"Workload", "Category", "Cycles"}, obs.CPIBucketNames()...)
	t := &metrics.Table{Header: header}
	for _, w := range perCategory(r.Opts.suite()) {
		tr, err := r.cache.Get(w, r.Opts.Insts)
		if err != nil {
			return "", err
		}
		var cpi *obs.CPIStack
		spec.Obs = &ObsSpec{CPIStack: true, Done: func(h *obs.Hooks) { cpi = h.CPI }}
		if _, err := Run(ctx, trace.NewSliceSource(tr), spec); err != nil {
			return "", err
		}
		row := []string{w.Name, w.Category.String(), fmt.Sprint(cpi.Total())}
		for b := obs.CPIBucket(0); b < obs.NumCPIBuckets; b++ {
			row = append(row, metrics.Pct(100*cpi.Fraction(b)))
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// perCategory picks the first suite workload of each category: a small,
// deterministic cross-section for per-cycle instrumentation runs.
func perCategory(ws []workloads.Workload) []workloads.Workload {
	var out []workloads.Workload
	seen := map[workloads.Category]bool{}
	for _, w := range ws {
		if !seen[w.Category] {
			seen[w.Category] = true
			out = append(out, w)
		}
	}
	return out
}
