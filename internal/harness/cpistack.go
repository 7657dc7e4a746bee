package harness

import (
	"context"
	"fmt"

	"localbp/internal/metrics"
	"localbp/internal/obs"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// CPIStackTable runs one representative workload per category under the
// named scheme with CPI-stack accounting and renders where every cycle
// went. The attribution is audited inside the core: a run whose buckets do
// not sum to its total cycles aborts with InvCPIAccounting.
func CPIStackTable(ctx context.Context, o Options, schemeName string) (string, error) {
	return cpiStackTable(ctx, o, NewTraceCache(), schemeName)
}

// Ext2 is the CPI-stack experiment under the paper's headline scheme.
func Ext2(ctx context.Context, r *Runner) (string, error) {
	return cpiStackTable(ctx, r.Opts, r.cache, "forward-coalesce")
}

func cpiStackTable(ctx context.Context, o Options, cache *TraceCache, schemeName string) (string, error) {
	spec, err := SpecFor(schemeName)
	if err != nil {
		return "", err
	}
	header := append([]string{"Workload", "Category", "Cycles"}, obs.CPIBucketNames()...)
	t := &metrics.Table{Header: header}
	for _, w := range perCategory(o.suite()) {
		tr, err := cache.Get(w, o.Insts)
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
