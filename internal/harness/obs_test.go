package harness

import (
	"context"
	"strings"
	"sync"
	"testing"

	"localbp/internal/obs"
	"localbp/internal/workloads"
)

// TestCPIStackSumsQuickSuite is the cycle-accounting acceptance test: on
// every quick-suite workload the CPI buckets must sum to the run's total
// cycles. The core's InvCPIAccounting invariant already aborts a run on
// mismatch; asserting here too keeps the property visible in `go test`
// output even if the invariant wiring regresses.
func TestCPIStackSumsQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	spec, err := SpecFor("forward-coalesce")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewTraceCache()
	for _, w := range workloads.QuickSuite() {
		tr, err := cache.Get(w, 20_000)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var cpi *obs.CPIStack
		spec.Obs = &ObsSpec{CPIStack: true, Done: func(h *obs.Hooks) { cpi = h.CPI }}
		res, err := runTrace(tr, spec)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if cpi == nil {
			t.Fatalf("%s: ObsSpec.Done never ran", w.Name)
		}
		if cpi.Total() != res.Stats.Cycles {
			t.Fatalf("%s: CPI buckets sum to %d, run took %d cycles", w.Name, cpi.Total(), res.Stats.Cycles)
		}
	}
}

// TestRunnerParallelObs drives the parallel Runner with observability on:
// every workload run gets its own fresh obs.Hooks (distinct pointers), Done
// fires exactly once per run, and nothing races (`make race` runs this
// package under -race).
func TestRunnerParallelObs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	spec, err := SpecFor("forward-coalesce")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[*obs.Hooks]bool{}
	spec.Obs = &ObsSpec{
		CPIStack: true, Counters: true, TraceCap: 256,
		Done: func(h *obs.Hooks) {
			// The registry's "mem" source is readable only inside Done.
			if h.Reg.Snapshot()["core.cycles"] == 0 {
				t.Error("counter registry empty in a parallel run")
			}
			mu.Lock()
			defer mu.Unlock()
			if seen[h] {
				t.Error("hooks shared between runs")
			}
			seen[h] = true
		},
	}
	r := NewRunner(Options{Insts: 10_000, Quick: true, Workers: 8})
	out := r.Run(spec)
	for _, o := range out {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Result.Workload, o.Err)
		}
	}
	if len(seen) != len(out) {
		t.Fatalf("Done ran for %d of %d runs", len(seen), len(out))
	}
	for h := range seen {
		if h.CPI.Total() <= 0 {
			t.Fatal("empty CPI stack from a parallel run")
		}
	}
}

// TestCPIStackTable checks the rendered ext2 artifact: one row per
// category, every bucket column present.
func TestCPIStackTable(t *testing.T) {
	out, err := Ext2(context.Background(), NewRunner(Options{Insts: 15_000, Quick: true}))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range workloads.Categories() {
		if !strings.Contains(out, c.String()) {
			t.Errorf("table missing category %s:\n%s", c, out)
		}
	}
	for _, name := range obs.CPIBucketNames() {
		if !strings.Contains(out, name) {
			t.Errorf("table missing bucket column %s:\n%s", name, out)
		}
	}
}

// TestSpecForRejectsUnknown ensures an unknown name's error names it and
// lists the grammar's forms.
func TestSpecForRejectsUnknown(t *testing.T) {
	_, err := SpecFor("definitely-not-a-scheme")
	if err == nil || !strings.Contains(err.Error(), `"definitely-not-a-scheme"`) ||
		!strings.Contains(err.Error(), "forward[-32-4-2][-coalesce]") {
		t.Fatalf("want an error naming the input and listing the grammar, got %v", err)
	}
}

// TestObsSpecValidate rejects a negative tracer capacity through the spec
// validation path (so sweeps fail fast, per run.go's Validate contract).
func TestObsSpecValidate(t *testing.T) {
	spec, err := SpecFor("tage")
	if err != nil {
		t.Fatal(err)
	}
	spec.Obs = &ObsSpec{TraceCap: -1}
	if err := spec.Validate(); err == nil {
		t.Fatal("negative TraceCap passed validation")
	}
}
