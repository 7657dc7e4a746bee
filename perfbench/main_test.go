package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"localbp/internal/core"
	"localbp/internal/workloads"
)

// tinyOptions runs a workload at a tiny instruction count for one op.
func tinyOptions(t *testing.T, workload string, traced bool) *options {
	return &options{
		workload:    workload,
		seed:        7,
		traced:      traced,
		pinnedInsts: 3000,
		sweepInsts:  600,
		root:        "..",
		scratch:     t.TempDir(),
		out:         &bytes.Buffer{},
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryMetricPrinted runs every workload untraced and traced and checks
// that the result line carries exactly the metrics BENCHMARK.json names,
// each with its unit, and that the text table prints them too.
func TestEveryMetricPrinted(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 3", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			o := tinyOptions(t, w.Name, traced)
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, o.out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			text := o.out.(*bytes.Buffer).String()
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(text, m.Name) {
					t.Errorf("%s traced=%v: %s missing from the printed table", w.Name, traced, m.Name)
				}
			}
			if !traced {
				for _, name := range []string{"ns_per_inst", "cpu_ns_per_inst", "setup_s", "paper_err_pp"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.Name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestPaperColumn checks the EXPERIMENTS.md reference column and the
// error computation against a hand-made Table 3.
func TestPaperColumn(t *testing.T) {
	md, err := os.ReadFile("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	paper, err := parsePaperColumn(string(md))
	if err != nil {
		t.Fatal(err)
	}
	for row, want := range map[string]float64{
		"No repair": 0, "Snapshot (32-8-8)": 30, "Update BHT at retire": 41,
		"Forward walk + coalescing": 79, "Perfect repair": 100,
	} {
		if paper[row] != want {
			t.Errorf("paper %s = %v, want %v", row, paper[row], want)
		}
	}

	var text strings.Builder
	text.WriteString("Configuration               MPKI redn  IPC gain  % of perfect  Storage (KB)\n")
	text.WriteString("baseline TAGE               0.0%       0.0%      0.0%          7.1\n")
	for _, l := range ladder {
		// Every row lands 2 points above the paper, the no-repair row 2 below.
		v := paper[l.paperRow] + 2
		if l.paperRow == "No repair" {
			v = -2
		}
		text.WriteString(l.label + strings.Repeat(" ", 28-len(l.label)) + "1.0%       0.1%      " +
			strings.ReplaceAll(fmt.Sprintf("%.1f%%", v), "-", "−") + "         8.9\n")
	}
	ours, err := parseTable3(text.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := paperError(ours, paper); got != 2 {
		t.Errorf("paperError = %v, want 2", got)
	}
	if _, err := parseTable3("Configuration  % of perfect\n"); err == nil {
		t.Error("a table without the ladder rows parsed")
	}
}

// TestTable3SpecsFollowLadder keeps the traced sweep's spec list in step
// with the ladder the untraced sweep's text is parsed by.
func TestTable3SpecsFollowLadder(t *testing.T) {
	specs := table3Specs()
	if len(specs) != len(ladder)+2 {
		t.Fatalf("%d specs for %d ladder rows", len(specs), len(ladder))
	}
	for i, l := range ladder {
		if specs[i+2].Label != l.label {
			t.Errorf("spec %d is %s, ladder row is %s", i+2, specs[i+2].Label, l.label)
		}
	}
}

// TestMismatchFailsOp forces the reference to disagree with the simulation
// and checks that every op is reported as failed.
func TestMismatchFailsOp(t *testing.T) {
	for _, name := range []string{"pinned-resident", "pinned-stream", "quick-sweep"} {
		o := tinyOptions(t, name, false)
		w, err := newWorkload(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setUp(); err != nil {
			t.Fatal(err)
		}
		switch w := w.(type) {
		case *pinned:
			for i := range w.ref {
				w.ref[i].Cycles++
			}
		case *sweep:
			w.ref += " "
		}
		res, err := timeOps(o, w, newProbe(), []float64{1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != res.Attempted || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want every op failed", name, res.Correct, res.Failed, res.Attempted)
		}
		if v := res.Metrics["ns_per_inst"].Value; v != 0 {
			t.Errorf("%s: ns_per_inst = %v from failed ops, want 0", name, v)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
	}
	if sameRun(directRun{st: core.Stats{Cycles: 2}}, directRun{st: core.Stats{Cycles: 1}}) == nil {
		t.Error("sameRun accepted different core stats")
	}
}

// TestSeedZeroIsOwnTrace checks that the default seed's pool starts with the
// pinned workload's own trace.
func TestSeedZeroIsOwnTrace(t *testing.T) {
	o := tinyOptions(t, "pinned-resident", false)
	o.seed = 0
	w, _ := workloads.ByName(pinnedWorkload)
	own := w.Generate(o.pinnedInsts)
	pool := (&pinned{o: o}).streams()
	if len(pool) != poolSize || !slices.Equal(pool[0], own) {
		t.Fatal("seed 0 does not start with the workload's own trace")
	}
	if slices.Equal(pool[1], own) {
		t.Fatal("the pool repeats the workload's own trace")
	}
}
