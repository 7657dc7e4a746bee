package harness_test

import (
	"context"
	"testing"

	"localbp"
	"localbp/internal/bpu/loop"
	"localbp/internal/harness"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// TestRunTraceBaseline pins a baseline Run: a full-length run with no repair
// stats, reporting what the localbp facade, which runs through Run, reports.
func TestRunTraceBaseline(t *testing.T) {
	checkRun(t, harness.BaselineSpec(), localbp.BaselineTAGE())
}

// TestRunTraceFullReturnsRepairStats pins a scheme Run: it has repair stats,
// and the same cycles and TAGE-override counts as the facade.
func TestRunTraceFullReturnsRepairStats(t *testing.T) {
	checkRun(t, harness.PerfectSpec(loop.Loop128()), localbp.PerfectRepair())
}

// checkRun runs spec over a 30k-instruction quick-suite trace and checks the
// Result against the facade's run of the same trace under facade.
func checkRun(t *testing.T, spec harness.Spec, facade localbp.Scheme) {
	t.Helper()
	tr := workloads.QuickSuite()[0].Generate(30_000)
	res, err := harness.Run(context.Background(), trace.NewSliceSource(tr), spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Label, err)
	}
	if res.Stats.Insts != 30_000 || res.Stats.IPC() <= 0 {
		t.Fatalf("%s: degenerate run: %+v", spec.Label, res.Stats)
	}
	if (res.Repair != nil) != (spec.Scheme != nil) {
		t.Fatalf("%s: repair stats %v, want them exactly for a scheme run", spec.Label, res.Repair)
	}
	fr, err := localbp.FromSource(trace.NewSliceSource(tr), facade)
	if err != nil {
		t.Fatalf("%s via the facade: %v", spec.Label, err)
	}
	if fr.Cycles != res.Stats.Cycles || fr.Overrides != res.Overrides || fr.OverridesOK != res.OverridesOK {
		t.Fatalf("%s: facade reports %d cycles, %d/%d overrides; Run %d cycles, %d/%d overrides",
			spec.Label, fr.Cycles, fr.Overrides, fr.OverridesOK,
			res.Stats.Cycles, res.Overrides, res.OverridesOK)
	}
}
