// Package metrics aggregates per-workload simulation results into the
// quantities the paper reports: geometric-mean IPC gains, arithmetic MPKI
// reductions, per-category rollups, normalization against perfect repair,
// and S-curves.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Result is one workload × configuration outcome.
type Result struct {
	Workload string
	Category string
	IPC      float64
	MPKI     float64
	TageMPKI float64
}

// GeoMeanRatio returns the geometric mean of b[i]/a[i] (e.g. IPC gain when
// b is the experiment and a the baseline), expressed as a ratio.
func GeoMeanRatio(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	sum := 0.0
	n := 0
	for i := range a {
		if a[i] <= 0 || b[i] <= 0 {
			continue
		}
		sum += math.Log(b[i] / a[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

// MeanReduction returns the average relative reduction (a-b)/a in percent:
// the paper's "MPKI reduction" metric.
func MeanReduction(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	sum := 0.0
	n := 0
	for i := range a {
		if a[i] <= 0 {
			continue
		}
		sum += (a[i] - b[i]) / a[i]
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * sum / float64(n)
}

// IPCGainPct returns the geometric-mean IPC gain of exp over base in percent.
func IPCGainPct(base, exp []float64) float64 {
	return 100 * (GeoMeanRatio(base, exp) - 1)
}

// ByCategory groups results and applies fn to (baseline, experiment) value
// slices per category, returning category → value in category name order.
// Mismatched result-set lengths (a partially-failed sweep compared against a
// complete one) return an error instead of panicking.
func ByCategory(base, exp []Result, value func(Result) float64, agg func(a, b []float64) float64) ([]string, []float64, error) {
	if len(base) != len(exp) {
		return nil, nil, fmt.Errorf("metrics: mismatched result sets (%d baseline vs %d experiment)",
			len(base), len(exp))
	}
	order := []string{}
	seen := map[string]bool{}
	groupsA := map[string][]float64{}
	groupsB := map[string][]float64{}
	for i := range base {
		c := base[i].Category
		if !seen[c] {
			seen[c] = true
			order = append(order, c)
		}
		groupsA[c] = append(groupsA[c], value(base[i]))
		groupsB[c] = append(groupsB[c], value(exp[i]))
	}
	out := make([]float64, len(order))
	for i, c := range order {
		out[i] = agg(groupsA[c], groupsB[c])
	}
	return order, out, nil
}

// SCurve returns per-workload IPC gains (exp/base - 1, percent) sorted
// ascending, with workload names attached: Figure 7c.
type SCurvePoint struct {
	Workload string
	GainPct  float64
}

// SCurve computes the sorted per-workload gain curve. Mismatched result-set
// lengths return an error instead of panicking.
func SCurve(base, exp []Result) ([]SCurvePoint, error) {
	if len(base) != len(exp) {
		return nil, fmt.Errorf("metrics: mismatched result sets (%d baseline vs %d experiment)",
			len(base), len(exp))
	}
	pts := make([]SCurvePoint, len(base))
	for i := range base {
		g := math.NaN()
		if base[i].IPC > 0 {
			g = 100 * (exp[i].IPC/base[i].IPC - 1)
		}
		pts[i] = SCurvePoint{Workload: base[i].Workload, GainPct: g}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].GainPct < pts[j].GainPct })
	return pts, nil
}

// Table renders a simple aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Bar renders v as a proportional ASCII bar against scale (the value that
// fills the full width); negative values render a left-marked bar. Figures
// print it next to the numbers so the sweep output reads like the paper's
// bar charts.
func Bar(v, scale float64, width int) string {
	if width <= 0 || math.IsNaN(v) || scale <= 0 {
		return ""
	}
	n := int(math.Abs(v)/scale*float64(width) + 0.5)
	if n > width {
		n = width
	}
	bar := strings.Repeat("#", n) + strings.Repeat(".", width-n)
	if v < 0 {
		return "-" + bar
	}
	return " " + bar
}

// Pct formats a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
