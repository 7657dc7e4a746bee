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

func TestSchemeByName(t *testing.T) {
	for _, name := range SchemeNames() {
		s, err := SchemeByName(name)
		if err != nil {
			t.Fatalf("registry name %q failed: %v", name, err)
		}
		if s.Label() != name {
			t.Fatalf("label %q for registry name %q", s.Label(), name)
		}
	}
	// Aliases resolve to the canonical entry.
	s, err := SchemeByName("forward-walk")
	if err != nil || s.Label() != "forward-coalesce" {
		t.Fatalf("alias resolution: %v, label %q", err, s.Label())
	}
	if _, err := SchemeByName("bogus"); err == nil {
		t.Fatal("unknown scheme name accepted")
	} else if !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("error does not list valid names: %v", err)
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

func TestSchemeOptions(t *testing.T) {
	w, _ := Workload("cloud-compression")
	small, err := Simulate(w, 60_000, ForwardWalk(WithOBQEntries(4), WithPorts(1, 1)))
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
