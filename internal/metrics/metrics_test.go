package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMeanRatio(t *testing.T) {
	a := []float64{1, 2, 4}
	b := []float64{2, 4, 8}
	if got := GeoMeanRatio(a, b); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMeanRatio = %v, want 2", got)
	}
}

func TestGeoMeanRatioIdentity(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		return math.Abs(GeoMeanRatio(clean, clean)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMeanRatioEdgeCases(t *testing.T) {
	if !math.IsNaN(GeoMeanRatio(nil, nil)) {
		t.Fatal("empty inputs should yield NaN")
	}
	if !math.IsNaN(GeoMeanRatio([]float64{1}, []float64{1, 2})) {
		t.Fatal("mismatched lengths should yield NaN")
	}
	// Zero entries are skipped, not fatal.
	if got := GeoMeanRatio([]float64{0, 2}, []float64{5, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("zero-skipping failed: %v", got)
	}
}

func TestMeanReduction(t *testing.T) {
	a := []float64{10, 20}
	b := []float64{5, 10}
	if got := MeanReduction(a, b); math.Abs(got-50) > 1e-9 {
		t.Fatalf("MeanReduction = %v, want 50", got)
	}
	// Negative reductions (regressions) must come out negative.
	if got := MeanReduction([]float64{10}, []float64{12}); got >= 0 {
		t.Fatalf("regression not negative: %v", got)
	}
}

func TestIPCGainPct(t *testing.T) {
	if got := IPCGainPct([]float64{1, 1}, []float64{1.1, 1.1}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("IPCGainPct = %v, want 10", got)
	}
}

func rs(cat string, ipc, mpki float64) Result {
	return Result{Workload: "w", Category: cat, IPC: ipc, MPKI: mpki}
}

func TestByCategory(t *testing.T) {
	base := []Result{rs("A", 1, 10), rs("A", 1, 20), rs("B", 1, 10)}
	exp := []Result{rs("A", 1, 5), rs("A", 1, 10), rs("B", 1, 10)}
	cats, vals, err := ByCategory(base, exp, func(r Result) float64 { return r.MPKI }, MeanReduction)
	if err != nil {
		t.Fatal(err)
	}
	if len(cats) != 2 || cats[0] != "A" || cats[1] != "B" {
		t.Fatalf("categories %v", cats)
	}
	if math.Abs(vals[0]-50) > 1e-9 || math.Abs(vals[1]) > 1e-9 {
		t.Fatalf("values %v", vals)
	}
}

func TestByCategoryErrorsOnMismatch(t *testing.T) {
	_, _, err := ByCategory([]Result{rs("A", 1, 1)}, nil, func(r Result) float64 { return r.IPC }, MeanReduction)
	if err == nil {
		t.Fatal("no error for mismatched result sets")
	}
	if !strings.Contains(err.Error(), "mismatched result sets") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := SCurve([]Result{rs("A", 1, 1)}, nil); err == nil {
		t.Fatal("SCurve: no error for mismatched result sets")
	}
}

func TestSCurveSorted(t *testing.T) {
	base := []Result{
		{Workload: "x", IPC: 1},
		{Workload: "y", IPC: 1},
		{Workload: "z", IPC: 1},
	}
	exp := []Result{
		{Workload: "x", IPC: 1.2},
		{Workload: "y", IPC: 0.9},
		{Workload: "z", IPC: 1.05},
	}
	pts, err := SCurve(base, exp)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Workload != "y" || pts[2].Workload != "x" {
		t.Fatalf("S-curve order wrong: %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].GainPct < pts[i-1].GainPct {
			t.Fatal("S-curve not ascending")
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[3], "beta-long-name") {
		t.Fatalf("table content wrong:\n%s", out)
	}
	// Columns must align: all lines equal width up to trailing spaces.
	if !strings.Contains(lines[1], "----") {
		t.Fatal("missing separator row")
	}
}

func TestFormatters(t *testing.T) {
	if Pct(12.345) != "12.3%" {
		t.Fatalf("Pct = %q", Pct(12.345))
	}
}

func TestBar(t *testing.T) {
	if got := Bar(50, 100, 10); got != " #####....." {
		t.Fatalf("Bar(50,100,10) = %q", got)
	}
	if got := Bar(-50, 100, 10); got[0] != '-' {
		t.Fatalf("negative bar %q", got)
	}
	if Bar(200, 100, 10) != " ##########" {
		t.Fatal("bar must clamp at full width")
	}
	if Bar(10, 0, 10) != "" || Bar(10, 100, 0) != "" {
		t.Fatal("degenerate inputs must render empty")
	}
}
