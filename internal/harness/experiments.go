package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"localbp/internal/core"
	"localbp/internal/metrics"
	"localbp/internal/workloads"
)

// Experiment regenerates one paper artifact (figure or table) as text. Run
// returns an error instead of panicking when aggregation fails (for example
// mismatched result sets after a partially-failed sweep); the sweep then
// skips the artifact and keeps going. The context flows into every
// underlying workload run: cancellation drains the artifact's simulations
// within one worker iteration.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, r *Runner) (string, error)
}

// Experiments returns every reproducible artifact in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: evaluated benchmark categories", func(ctx context.Context, r *Runner) (string, error) { return Table1(), nil }},
		{"table2", "Table 2: simulator parameters", func(ctx context.Context, r *Runner) (string, error) { return Table2(), nil }},
		{"fig4", "Figure 4: MPKI opportunity and the cost of not repairing", Fig4},
		{"fig7a", "Figure 7a: MPKI reduction of CBPw-Loop{64,128,256} with perfect repair", Fig7a},
		{"fig7b", "Figure 7b: IPC gain of CBPw-Loop{64,128,256} with perfect repair", Fig7b},
		{"fig7c", "Figure 7c: IPC S-curve for CBPw-Loop128 (perfect repair)", Fig7c},
		{"fig8", "Figure 8: BHT repairs needed per misprediction", Fig8},
		{"fig9", "Figure 9: update-at-retire and no-repair vs perfect repair", Fig9},
		{"fig10", "Figure 10: backward walk and snapshot across M-N-P configurations", Fig10},
		{"fig11", "Figure 11: forward walk across configurations (+ coalescing)", Fig11},
		{"fig12", "Figure 12: multi-stage prediction with split BHT (shared/split PT)", Fig12},
		{"fig13", "Figure 13: limited-PC repair scaling", Fig13},
		{"table3", "Table 3: summary of all repair techniques", Table3},
		{"fig14a", "Figure 14A: iso-storage TAGE(9KB) vs TAGE+CBPw-Loop+forward walk", Fig14a},
		{"fig14b", "Figure 14B: CBPw-Loop on a 57KB TAGE baseline", Fig14b},
		{"ext1", "Extension: repair schemes over a generic (Yeh-Patt) local predictor", Ext1},
		{"ext2", "Extension: CPI stacks (cycle accounting) under forward-walk repair", Ext2},
	}
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table1 prints the workload inventory (Table 1).
func Table1() string {
	t := &metrics.Table{Header: []string{"Category", "Count", "Example workloads"}}
	suite := workloads.Suite()
	for _, c := range workloads.Categories() {
		names := []string{}
		for _, w := range suite {
			if w.Category == c && len(names) < 4 {
				names = append(names, w.Name)
			}
		}
		t.AddRow(c.String(), fmt.Sprint(workloads.CategoryCount(c)), strings.Join(names, ", ")+", ...")
	}
	t.AddRow("TOTAL", fmt.Sprint(workloads.SuiteSize), "")
	return t.String()
}

// Table2 echoes the simulated core parameters (Table 2).
func Table2() string {
	cfg := core.DefaultConfig()
	t := &metrics.Table{Header: []string{"Parameter", "Value"}}
	t.AddRow("Core", fmt.Sprintf("%d-wide OOO, %d-entry ROB, %d-entry allocation queue",
		cfg.Width, cfg.ROBSize, cfg.AllocQueue))
	t.AddRow("Baseline predictor", "TAGE - 7.1 KB class (see tage.KB8)")
	t.AddRow("CBPw-Loop256", "256 entries, 8-way BHT, PT")
	t.AddRow("CBPw-Loop128", "128 entries, 8-way BHT, PT (default)")
	t.AddRow("CBPw-Loop64", "64 entries, 8-way BHT, PT")
	t.AddRow("L1", fmt.Sprintf("%dKB, %d-way, %d cycles, prefetch", cfg.Mem.L1.SizeBytes>>10, cfg.Mem.L1.Ways, cfg.Mem.L1.Latency))
	t.AddRow("L2", fmt.Sprintf("%dKB, %d-way, %d cycles, prefetch", cfg.Mem.L2.SizeBytes>>10, cfg.Mem.L2.Ways, cfg.Mem.L2.Latency))
	t.AddRow("LLC", fmt.Sprintf("%dMB, %d-way, %d cycles, prefetch", cfg.Mem.LLC.SizeBytes>>20, cfg.Mem.LLC.Ways, cfg.Mem.LLC.Latency))
	t.AddRow("Main memory", fmt.Sprintf("~%d cycles", cfg.Mem.DRAMLatency))
	t.AddRow("Front end", fmt.Sprintf("%d-cycle fetch-to-alloc, %d-cycle redirect", cfg.FrontendDepth, cfg.ResteerPenalty))
	return t.String()
}

// Fig4 shows the per-category MPKI reduction of a never-mispredicting local
// predictor (the opportunity) against a local predictor with no repair.
func Fig4(ctx context.Context, r *Runner) (string, error) {
	res, err := r.results(ctx, "tage", "oracle-local", "no-repair")
	if err != nil {
		return "", err
	}
	base, oracle, none := res[0], res[1], res[2]
	cats, opp, err := byCategoryMPKI(base, oracle)
	if err != nil {
		return "", err
	}
	_, lost, err := byCategoryMPKI(base, none)
	if err != nil {
		return "", err
	}
	t := &metrics.Table{Header: []string{"Category", "MPKI redn (ideal local)", "MPKI redn (no repair)"}}
	for i, c := range cats {
		t.AddRow(c, metrics.Pct(opp[i]), metrics.Pct(lost[i]))
	}
	t.AddRow("ALL", metrics.Pct(mpkiReduction(base, oracle)), metrics.Pct(mpkiReduction(base, none)))
	return t.String(), nil
}

// loopSizeRows are the baseline and perfect repair at the three Table 2
// local predictor sizes.
var loopSizeRows = []string{"tage", "perfect-CBPw-Loop64", "perfect-CBPw-Loop128", "perfect-CBPw-Loop256"}

// Fig7a: per-category MPKI reduction with perfect repair across sizes.
func Fig7a(ctx context.Context, r *Runner) (string, error) {
	all, err := r.results(ctx, loopSizeRows...)
	if err != nil {
		return "", err
	}
	base := all[0]
	t := &metrics.Table{Header: []string{"Category", "Loop64", "Loop128", "Loop256"}}
	rows := map[string][]string{}
	var cats []string
	for _, res := range all[1:] {
		cs, red, err := byCategoryMPKI(base, res)
		if err != nil {
			return "", err
		}
		cats = cs
		for i, c := range cs {
			rows[c] = append(rows[c], metrics.Pct(red[i]))
		}
		rows["ALL"] = append(rows["ALL"], metrics.Pct(mpkiReduction(base, res)))
	}
	for _, c := range append(cats, "ALL") {
		t.AddRow(append([]string{c}, rows[c]...)...)
	}
	return t.String(), nil
}

// Fig7b: per-category IPC gain with perfect repair across sizes.
func Fig7b(ctx context.Context, r *Runner) (string, error) {
	all, err := r.results(ctx, loopSizeRows...)
	if err != nil {
		return "", err
	}
	base := all[0]
	t := &metrics.Table{Header: []string{"Category", "Loop64", "Loop128", "Loop256"}}
	rows := map[string][]string{}
	var cats []string
	for _, res := range all[1:] {
		cs, gain, err := byCategoryIPC(base, res)
		if err != nil {
			return "", err
		}
		cats = cs
		for i, c := range cs {
			rows[c] = append(rows[c], metrics.Pct(gain[i]))
		}
		rows["ALL"] = append(rows["ALL"], metrics.Pct(ipcGain(base, res)))
	}
	for _, c := range append(cats, "ALL") {
		t.AddRow(append([]string{c}, rows[c]...)...)
	}
	return t.String(), nil
}

// Fig7c: the per-workload IPC gain S-curve for Loop128 with named outliers.
func Fig7c(ctx context.Context, r *Runner) (string, error) {
	res, err := r.results(ctx, "tage", "perfect")
	if err != nil {
		return "", err
	}
	pts, err := metrics.SCurve(res[0], res[1])
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "S-curve over %d workloads (sorted IPC gain, CBPw-Loop128 perfect repair)\n", len(pts))
	n := len(pts)
	pick := map[int]bool{0: true, n - 1: true}
	for _, q := range []int{n / 10, n / 4, n / 2, 3 * n / 4, 9 * n / 10} {
		pick[q] = true
	}
	for i, p := range pts {
		interesting := pick[i] || p.Workload == "eembc-dither" ||
			p.Workload == "cloud-compression" || p.Workload == "tabletmark-email" ||
			p.Workload == "sysmark-photoshop"
		if interesting {
			fmt.Fprintf(&b, "  #%3d %-24s %+7.2f%%\n", i+1, p.Workload, p.GainPct)
		}
	}
	return b.String(), nil
}

// Fig8: average and maximum BHT repairs required per misprediction,
// from the perfect-repair oracle's restore diffs.
func Fig8(ctx context.Context, r *Runner) (string, error) {
	perf, err := SpecFor("perfect")
	if err != nil {
		return "", err
	}
	out := r.RunContext(ctx, perf)
	type row struct {
		name string
		avg  float64
		max  int
	}
	var rows []row
	globalMax, sum, samples := 0, uint64(0), uint64(0)
	for _, o := range out {
		st := o.Repair
		if st.NeededSamples == 0 {
			continue
		}
		rows = append(rows, row{o.Result.Workload,
			float64(st.NeededSum) / float64(st.NeededSamples), st.NeededMax})
		sum += st.NeededSum
		samples += st.NeededSamples
		if st.NeededMax > globalMax {
			globalMax = st.NeededMax
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].avg > rows[j].avg })
	var b strings.Builder
	fmt.Fprintf(&b, "suite: avg repairs/mispredict = %.1f, max = %d\n",
		float64(sum)/float64(max(1, samples)), globalMax)
	b.WriteString("top workloads by average repairs needed:\n")
	for i, rw := range rows {
		if i >= 12 {
			break
		}
		fmt.Fprintf(&b, "  %-26s avg=%5.1f max=%3d\n", rw.name, rw.avg, rw.max)
	}
	return b.String(), nil
}

// Fig9: IPC of update-at-retire and no-repair, normalized to perfect repair.
func Fig9(ctx context.Context, r *Runner) (string, error) {
	res, err := r.results(ctx, "tage", "perfect", "retire-update", "no-repair")
	if err != nil {
		return "", err
	}
	base, perf, retire, none := res[0], res[1], res[2], res[3]
	perfGain := ipcGain(base, perf)
	cats, gr, err := byCategoryIPC(base, retire)
	if err != nil {
		return "", err
	}
	_, gn, err := byCategoryIPC(base, none)
	if err != nil {
		return "", err
	}
	_, gp, err := byCategoryIPC(base, perf)
	if err != nil {
		return "", err
	}
	t := &metrics.Table{Header: []string{"Category", "perfect dIPC", "retire dIPC", "no-repair dIPC"}}
	for i, c := range cats {
		t.AddRow(c, metrics.Pct(gp[i]), metrics.Pct(gr[i]), metrics.Pct(gn[i]))
	}
	t.AddRow("ALL", metrics.Pct(perfGain), metrics.Pct(ipcGain(base, retire)), metrics.Pct(ipcGain(base, none)))
	t.AddRow("% of perfect", "100%",
		metrics.Pct(100*ipcGain(base, retire)/perfGain),
		metrics.Pct(100*ipcGain(base, none)/perfGain))
	return t.String(), nil
}

// normalizedRows renders the named rows as (MPKI redn, IPC gain, % of
// perfect).
func normalizedRows(ctx context.Context, r *Runner, names ...string) (string, error) {
	ref, err := r.results(ctx, "tage", "perfect")
	if err != nil {
		return "", err
	}
	rows, err := specs(names...)
	if err != nil {
		return "", err
	}
	base, perf := ref[0], ref[1]
	perfGain := ipcGain(base, perf)
	t := &metrics.Table{Header: []string{"Configuration", "MPKI redn", "IPC gain", "% of perfect", ""}}
	for _, s := range rows {
		res := r.ResultsContext(ctx, s)
		g := ipcGain(base, res)
		norm := 100 * g / perfGain
		t.AddRow(s.Label, metrics.Pct(mpkiReduction(base, res)), metrics.Pct(g),
			metrics.Pct(norm), metrics.Bar(norm, 100, 20))
	}
	t.AddRow("perfect", metrics.Pct(mpkiReduction(base, perf)), metrics.Pct(perfGain),
		"100.0%", metrics.Bar(100, 100, 20))
	return t.String(), nil
}

// Fig10: prior techniques across storage/port configurations.
func Fig10(ctx context.Context, r *Runner) (string, error) {
	return normalizedRows(ctx, r,
		"backward-64-64-64", "backward-32-8-8", "backward-32-4-4", "backward-16-4-4",
		"snapshot-64-64-64", "snapshot-32-8-8", "snapshot-16-8-8")
}

// Fig11: forward walk across configurations, plus coalescing.
func Fig11(ctx context.Context, r *Runner) (string, error) {
	return normalizedRows(ctx, r, "forward-64-8-4", "forward-64-4-2", "forward-32-8-4",
		"forward-32-4-2", "forward-32-4-2-coalesce")
}

// Fig12: multi-stage prediction with split BHT, shared vs split PT, compared
// with forward walk.
func Fig12(ctx context.Context, r *Runner) (string, error) {
	return normalizedRows(ctx, r, "forward-32-4-2", "multistage-shared-pt", "multistage-split-pt")
}

// Fig13: limited-PC repair scaling over the number of repaired PCs, and the
// "mark invalid" ablation.
func Fig13(ctx context.Context, r *Runner) (string, error) {
	return normalizedRows(ctx, r, "limited-2pc", "limited-4pc", "limited-8pc", "limited-4pc-invalidate")
}

// table3Rows lists Table 3's repair configurations in row order, between
// the baseline and perfect-repair rows.
var table3Rows = []string{
	"no-repair-CBPw-Loop128", "snapshot-32-8-8", "retire-update-CBPw-Loop128",
	"backward-32-4-4", "limited-2pc", "multistage-shared-pt", "limited-4pc",
	"forward-32-4-2", "forward-32-4-2-coalesce",
}

// Table3: the summary of every technique, with storage.
func Table3(ctx context.Context, r *Runner) (string, error) {
	ref, err := r.results(ctx, "tage", "perfect")
	if err != nil {
		return "", err
	}
	rows, err := specs(table3Rows...)
	if err != nil {
		return "", err
	}
	base, perf := ref[0], ref[1]
	perfGain := ipcGain(base, perf)

	kb := func(mk SchemeMaker) string {
		if mk == nil {
			return "7.1 (TAGE only)"
		}
		s := mk()
		return fmt.Sprintf("%.1f", 7.1+float64(s.StorageBits())/8192)
	}
	t := &metrics.Table{Header: []string{"Configuration", "MPKI redn", "IPC gain", "% of perfect", "Storage (KB)"}}
	t.AddRow("baseline TAGE", "0.0%", "0.0%", "0.0%", "7.1")
	for _, spec := range rows {
		res := r.ResultsContext(ctx, spec)
		g := ipcGain(base, res)
		t.AddRow(spec.Label, metrics.Pct(mpkiReduction(base, res)), metrics.Pct(g),
			metrics.Pct(100*g/perfGain), kb(spec.Scheme))
	}
	t.AddRow("perfect repair", metrics.Pct(mpkiReduction(base, perf)), metrics.Pct(perfGain), "100.0%", "NA")
	return t.String(), nil
}

// Fig14a: iso-storage — TAGE grown to 9KB vs TAGE(7.1KB) + CBPw-Loop128 with
// forward-walk repair.
func Fig14a(ctx context.Context, r *Runner) (string, error) {
	res, err := r.results(ctx, "tage", "tage9", "forward-coalesce", "perfect")
	if err != nil {
		return "", err
	}
	base, iso, fwd, perf := res[0], res[1], res[2], res[3]
	t := &metrics.Table{Header: []string{"Configuration", "IPC gain vs TAGE-8KB"}}
	t.AddRow("TAGE scaled to 9KB", metrics.Pct(ipcGain(base, iso)))
	t.AddRow("TAGE 7.1KB + Loop128 + forward walk", metrics.Pct(ipcGain(base, fwd)))
	t.AddRow("TAGE 7.1KB + Loop128 + perfect repair", metrics.Pct(ipcGain(base, perf)))
	return t.String(), nil
}

// Fig14b: CBPw-Loop on the 57KB TAGE baseline, across repair schemes.
func Fig14b(ctx context.Context, r *Runner) (string, error) {
	names := []string{"tage57-perfect", "tage57-forward-32-4-2-coalesce",
		"tage57-multistage-shared-pt", "tage57-limited-4pc"}
	res, err := r.results(ctx, append([]string{"tage57"}, names...)...)
	if err != nil {
		return "", err
	}
	base57 := res[0]
	t := &metrics.Table{Header: []string{"Configuration", "MPKI redn", "IPC gain vs TAGE-57KB"}}
	for i, name := range names {
		row := "tage57+" + strings.TrimPrefix(name, "tage57-")
		t.AddRow(row, metrics.Pct(mpkiReduction(base57, res[i+1])), metrics.Pct(ipcGain(base57, res[i+1])))
	}
	return t.String(), nil
}

// specs resolves experiment row names, in order.
func specs(names ...string) ([]Spec, error) {
	out := make([]Spec, len(names))
	for i, name := range names {
		s, err := SpecFor(name)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// results runs each named configuration over the suite, in order.
func (r *Runner) results(ctx context.Context, names ...string) ([][]metrics.Result, error) {
	ss, err := specs(names...)
	if err != nil {
		return nil, err
	}
	out := make([][]metrics.Result, len(ss))
	for i, s := range ss {
		out[i] = r.ResultsContext(ctx, s)
	}
	return out, nil
}
