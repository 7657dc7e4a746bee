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

// TestRunWarmupRepairCounts pins the repair and override counts to the
// measured instructions, as Stats is: each mispredict is either repaired or
// left unrepaired, so Repairs + Unrepaired equals Mispredicts with and
// without a warm-up. The warm-up's overrides drop out of the counts, and
// NeededMax is the measured maximum, which cannot exceed the whole run's.
func TestRunWarmupRepairCounts(t *testing.T) {
	w, _ := workloads.ByName("cloud-compression")
	tr := w.Generate(30_000)
	for _, name := range []string{"forward-coalesce", "perfect", "snapshot", "limited-4pc", "backward"} {
		spec, err := harness.SpecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		var whole harness.Result
		for _, warmup := range []uint64{0, 10_000} {
			spec.Core.WarmupInsts = warmup
			res, err := harness.Run(context.Background(), trace.NewSliceSource(tr), spec)
			if err != nil {
				t.Fatalf("%s warmup=%d: %v", name, warmup, err)
			}
			rst := res.Repair
			if rst.Repairs+rst.Unrepaired != res.Stats.Mispredicts {
				t.Errorf("%s warmup=%d: %d repairs + %d unrepaired, want the %d mispredicts",
					name, warmup, rst.Repairs, rst.Unrepaired, res.Stats.Mispredicts)
			}
			if warmup == 0 {
				whole = res
				continue
			}
			if res.Overrides >= whole.Overrides || res.OverridesOK > res.Overrides {
				t.Errorf("%s: %d/%d overrides after the warm-up, %d/%d over the whole run",
					name, res.Overrides, res.OverridesOK, whole.Overrides, whole.OverridesOK)
			}
			if rst.NeededMax > whole.Repair.NeededMax {
				t.Errorf("%s: NeededMax %d after the warm-up exceeds the whole run's %d",
					name, rst.NeededMax, whole.Repair.NeededMax)
			}
		}
	}
}
