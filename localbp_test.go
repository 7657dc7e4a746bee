package localbp

import (
	"strings"
	"testing"

	"localbp/internal/trace"
)

func TestWorkloadLookup(t *testing.T) {
	w, ok := Workload("cloud-compression")
	if !ok || w.Name != "cloud-compression" {
		t.Fatal("named workload missing")
	}
	if _, ok := Workload("bogus"); ok {
		t.Fatal("found a nonexistent workload")
	}
}

func TestSuitesExposed(t *testing.T) {
	if len(Workloads()) != 202 {
		t.Fatalf("full suite %d, want 202", len(Workloads()))
	}
	if q := len(QuickWorkloads()); q == 0 || q >= 202 {
		t.Fatalf("quick suite size %d", q)
	}
}

func TestSimulateBaselineVsPerfect(t *testing.T) {
	w, _ := Workload("cloud-compression")
	base, err := Simulate(w, 120_000, BaselineTAGE())
	if err != nil {
		t.Fatal(err)
	}
	perf, err := Simulate(w, 120_000, PerfectRepair())
	if err != nil {
		t.Fatal(err)
	}
	if base.Insts != 120_000 || perf.Insts != 120_000 {
		t.Fatal("instruction counts wrong")
	}
	if perf.MPKI >= base.MPKI {
		t.Fatalf("perfect repair did not reduce MPKI on the loopiest workload: %.2f -> %.2f",
			base.MPKI, perf.MPKI)
	}
	if perf.Overrides == 0 {
		t.Fatal("no overrides recorded")
	}
	if base.Scheme != "tage" || perf.Scheme != "perfect" {
		t.Fatal("scheme labels wrong")
	}
}

func TestSchemeLabels(t *testing.T) {
	opts := []Scheme{
		BaselineTAGE(), PerfectRepair(), NoRepair(), RetireUpdate(),
		SnapshotQueue(), BackwardWalk(), ForwardWalk(), MultiStage(),
		LimitedPC(4), GenericLocal(),
	}
	seen := map[string]bool{}
	for _, o := range opts {
		if o.Label() == "" || seen[o.Label()] {
			t.Fatalf("bad or duplicate label %q", o.Label())
		}
		seen[o.Label()] = true
	}
}

// TestSchemeByName: a configuration name resolves to its canonical label,
// with the paper's defaults optionally left off; the retired registry's
// aliases and unknown names are errors that list the grammar.
func TestSchemeByName(t *testing.T) {
	for name, label := range map[string]string{
		"forward-coalesce":       "forward-32-4-2-coalesce",
		"forward-64-8-4":         "forward-64-8-4",
		"limited-4pc-invalidate": "limited-4pc-invalidate",
		"tage57-perfect":         "tage57-perfect-CBPw-Loop128",
		"yehpatt-perfect":        "yehpatt-perfect",
		"tage":                   "tage",
	} {
		s, err := SchemeByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if s.Label() != label {
			t.Fatalf("label %q for %q, want %q", s.Label(), name, label)
		}
	}
	for _, name := range []string{"forward-walk", "backward-walk", "limited-pc", "bogus"} {
		if _, err := SchemeByName(name); err == nil {
			t.Fatalf("%q accepted", name)
		} else if !strings.Contains(err.Error(), "forward[-32-4-2][-coalesce]") {
			t.Fatalf("%q: error does not list the grammar: %v", name, err)
		}
	}
}

// TestSimulateRejectsBadScheme: a scheme whose parameters no repair
// hardware has (zero PCs, an empty queue, no ports, sizes past the bound)
// fails Simulate with an error instead of panicking inside the run.
func TestSimulateRejectsBadScheme(t *testing.T) {
	w, _ := Workload("cloud-compression")
	for _, m := range []int{0, -1, 1025} {
		if _, err := Simulate(w, 2_000, LimitedPC(m)); err == nil {
			t.Fatalf("LimitedPC(%d) simulated", m)
		}
	}
	for _, name := range []string{"forward-0-4-2", "forward-32-4-0", "snapshot-2048-8-8"} {
		if _, err := SchemeByName(name); err == nil {
			t.Fatalf("%q accepted", name)
		}
	}
	if _, err := Simulate(w, 2_000, LimitedPC(1)); err != nil {
		t.Fatalf("LimitedPC(1): %v", err)
	}
}

func TestSimulateTraceSharesTrace(t *testing.T) {
	w, _ := Workload("tabletmark-email")
	tr := w.Generate(60_000)
	a, err := FromSource(trace.NewSliceSource(tr), ForwardWalk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromSource(trace.NewSliceSource(tr), ForwardWalk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Insts != b.Insts || a.Mispredicts != b.Mispredicts ||
		a.IPC != b.IPC || a.MPKI != b.MPKI || a.Overrides != b.Overrides {
		t.Fatalf("same trace and scheme diverged:\n%+v\n%+v", a, b)
	}
}

func TestSimulateNilSchemeAndBadCount(t *testing.T) {
	w, _ := Workload("cloud-compression")
	if _, err := Simulate(w, 0, BaselineTAGE()); err == nil {
		t.Fatal("zero instruction count accepted")
	}
	if _, err := FromSource(trace.NewSliceSource(w.Generate(1000)), nil); err == nil {
		t.Fatal("nil scheme accepted")
	}
}

// TestSimulateRejectsWholeRunWarmup: a warm-up that covers the whole run
// would report statistics over no instructions, so Simulate refuses it.
func TestSimulateRejectsWholeRunWarmup(t *testing.T) {
	w, _ := Workload("cloud-compression")
	for _, k := range []uint64{5000, 6000} {
		if _, err := Simulate(w, 5000, BaselineTAGE(), WithWarmup(k)); err == nil {
			t.Fatalf("warm-up %d of a 5000-instruction run accepted", k)
		}
	}
	if _, err := Simulate(w, 5000, BaselineTAGE(), WithWarmup(4999)); err != nil {
		t.Fatalf("warm-up shorter than the run rejected: %v", err)
	}
}

// TestWarmupCPIStack: under a warm-up the CPI stack covers the same cycles
// as the statistics, so it still sums to Cycles.
func TestWarmupCPIStack(t *testing.T) {
	w, _ := Workload("cloud-compression")
	full, err := Simulate(w, 30_000, ForwardWalk(), WithCPIStack())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Simulate(w, 30_000, ForwardWalk(), WithWarmup(10_000), WithCPIStack())
	if err != nil {
		t.Fatal(err)
	}
	if warm.CPI.Total() != warm.Cycles {
		t.Fatalf("warmed-up CPI stack attributed %d cycles, the measured run took %d", warm.CPI.Total(), warm.Cycles)
	}
	if warm.Cycles >= full.Cycles || full.CPI.Total() != full.Cycles {
		t.Fatalf("warm-up did not shorten the measured run: %d of %d cycles (full-run stack %d)",
			warm.Cycles, full.Cycles, full.CPI.Total())
	}
}

func TestWithSeedChangesTrace(t *testing.T) {
	w, _ := Workload("cloud-compression")
	a, err := Simulate(w, 60_000, ForwardWalk(), WithAudit())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(w, 60_000, ForwardWalk(), WithSeed(12345))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles && a.Mispredicts == b.Mispredicts {
		t.Fatal("seed override did not change the generated trace")
	}
}

func TestSimulateObservability(t *testing.T) {
	w, _ := Workload("cloud-compression")
	var streamed int
	res, err := Simulate(w, 80_000, ForwardWalk(),
		WithAudit(), WithGolden(), WithCPIStack(), WithCounters(),
		WithEventTrace(256), WithObserver(func(Event) { streamed++ }))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPI == nil {
		t.Fatal("WithCPIStack produced no CPI stack")
	}
	if res.CPI.Total() != res.Cycles {
		t.Fatalf("CPI stack attributed %d cycles, run took %d", res.CPI.Total(), res.Cycles)
	}
	if res.CPI.Count(CPIRetired) == 0 {
		t.Fatal("no retired-work cycles attributed")
	}
	if res.Counters == nil {
		t.Fatal("WithCounters produced no snapshot")
	}
	for _, key := range []string{"core.cycles", "core.insts", "mem.accesses", "repair.repairs", "obq.allocs"} {
		if _, ok := res.Counters[key]; !ok {
			t.Fatalf("counter %q missing from snapshot (have %d keys)", key, len(res.Counters))
		}
	}
	if res.Counters["core.insts"] != res.Insts {
		t.Fatalf("counter core.insts=%d, result %d", res.Counters["core.insts"], res.Insts)
	}
	if len(res.Events) == 0 || len(res.Events) > 256 {
		t.Fatalf("event trace retained %d events, want 1..256", len(res.Events))
	}
	if streamed == 0 {
		t.Fatal("observer saw no events")
	}
	sawMisp := false
	for _, e := range res.Events {
		if e.Kind == EvMispredict {
			sawMisp = true
			break
		}
	}
	if !sawMisp && res.Mispredicts > 0 {
		t.Fatal("mispredictions occurred but none retained in the event window")
	}

	// A bare run keeps the observability fields nil.
	bare, err := Simulate(w, 60_000, ForwardWalk())
	if err != nil {
		t.Fatal(err)
	}
	if bare.CPI != nil || bare.Counters != nil || bare.Events != nil {
		t.Fatal("observability fields set without opt-in")
	}
}

// TestSchemeOptions: a configuration name sets the repair hardware's size;
// a starved forward walk is slower than the paper's.
func TestSchemeOptions(t *testing.T) {
	w, _ := Workload("cloud-compression")
	starved, err := SchemeByName("forward-4-1-1-coalesce")
	if err != nil {
		t.Fatal(err)
	}
	small, err := Simulate(w, 60_000, starved)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Simulate(w, 60_000, ForwardWalk())
	if err != nil {
		t.Fatal(err)
	}
	if small.Cycles <= big.Cycles {
		t.Fatalf("starved repair (4-entry OBQ, 1/1 ports) not slower: %d vs %d cycles",
			small.Cycles, big.Cycles)
	}
}
