package harness

import (
	"context"
	"strings"
	"testing"

	"localbp/internal/bpu/loop"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

func tinyOptions() Options { return Options{Insts: 30_000, Quick: true} }

// runTrace is Run over an in-memory trace under context.Background().
func runTrace(tr []trace.Inst, spec Spec) (Result, error) {
	return Run(context.Background(), trace.NewSliceSource(tr), spec)
}

func TestTraceCacheReuses(t *testing.T) {
	c := NewTraceCache()
	w := workloads.QuickSuite()[0]
	a, err := c.Get(w, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.Get(w, 10_000)
	if &a[0] != &b[0] {
		t.Fatal("cache did not reuse the trace")
	}
	d, _ := c.Get(w, 20_000)
	if len(d) != 20_000 {
		t.Fatal("cache ignored the new instruction count")
	}
	if e, _ := c.Get(w, 10_000); &e[0] != &a[0] {
		t.Fatal("changing insts evicted the old (workload, insts) entry")
	}
	if _, err := c.Get(w, 0); err == nil {
		t.Fatal("zero-length trace request did not error")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(tinyOptions())
	a := r.Run(BaselineSpec())
	b := r.Run(BaselineSpec())
	if &a[0] != &b[0] {
		t.Fatal("runner did not memoize results")
	}
	if len(a) != len(workloads.QuickSuite()) {
		t.Fatalf("ran %d workloads, want quick suite size", len(a))
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 14 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "table3", "fig4", "fig7a", "fig7b",
		"fig7c", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14a", "fig14b"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
	if _, ok := ExperimentByID("fig4"); !ok {
		t.Fatal("ExperimentByID(fig4) failed")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Fatal("ExperimentByID found a nonexistent id")
	}
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	if !strings.Contains(t1, "Server") || !strings.Contains(t1, "202") {
		t.Fatalf("Table1 content wrong:\n%s", t1)
	}
	t2 := Table2()
	if !strings.Contains(t2, "ROB") || !strings.Contains(t2, "TAGE") {
		t.Fatalf("Table2 content wrong:\n%s", t2)
	}
}

// TestIntegrationOrdering is the headline integration test: on a reduced run,
// the paper's qualitative ordering must hold — perfect > forward walk > no
// repair, and no repair ≈ baseline.
func TestIntegrationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	o := Options{Insts: 60_000, Quick: true}
	r := NewRunner(o)
	base := r.Results(BaselineSpec())
	perf := r.Results(PerfectSpec(loop.Loop128()))
	fwd := r.Results(mustSpecFor("forward-coalesce"))
	none := r.Results(NoRepairSpec(loop.Loop128()))

	perfRed := mpkiReduction(base, perf)
	fwdRed := mpkiReduction(base, fwd)
	noneRed := mpkiReduction(base, none)

	if perfRed < 10 {
		t.Fatalf("perfect repair reduced MPKI by only %.1f%%", perfRed)
	}
	if fwdRed < perfRed/2 {
		t.Fatalf("forward walk (%.1f%%) retained under half of perfect (%.1f%%)", fwdRed, perfRed)
	}
	if fwdRed > perfRed+1 {
		t.Fatalf("forward walk (%.1f%%) beat perfect repair (%.1f%%)", fwdRed, perfRed)
	}
	if noneRed > 5 || noneRed < -10 {
		t.Fatalf("no-repair reduction %.1f%% should be ~0 or slightly negative", noneRed)
	}
}

func TestFig8Output(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	r := NewRunner(Options{Insts: 40_000, Quick: true})
	out, err := Fig8(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "avg repairs/mispredict") {
		t.Fatalf("Fig8 output malformed:\n%s", out)
	}
}

func TestNormalizedRowsRenderBars(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	r := NewRunner(Options{Insts: 30_000, Quick: true})
	out, err := Fig13(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "% of perfect") {
		t.Fatalf("figure output lacks bars or headers:\n%s", out)
	}
}

func TestWarmupOptionPlumbs(t *testing.T) {
	r := NewRunner(Options{Insts: 40_000, Quick: true, Warmup: 20_000})
	res := r.Results(BaselineSpec())
	// With warmup, IPC must still be sane; the plumb itself is covered by
	// internal/core tests — here we check the option survives the runner.
	for _, x := range res {
		if x.IPC <= 0 {
			t.Fatalf("degenerate warmed result %+v", x)
		}
	}
}
