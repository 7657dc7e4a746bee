package harness

import (
	"context"

	"localbp/internal/metrics"
)

// Extension experiment (beyond the paper's figures): the paper argues its
// repair techniques are "extensible to any generic local predictor" (§1,
// §2.3). Ext1 substantiates that claim by swapping CBPw-Loop for a Yeh-Patt
// two-level local predictor — the speculative state becomes an 11-bit
// direction pattern instead of an iteration counter — and re-running the
// repair ladder unchanged.

// Ext1 compares the loop predictor and the generic local predictor under
// no repair, forward-walk repair and perfect repair.
func Ext1(ctx context.Context, r *Runner) (string, error) {
	rows := []struct{ label, name string }{
		{"loop + no repair", "no-repair"},
		{"loop + forward walk", "forward-coalesce"},
		{"loop + perfect", "perfect"},
		{"yehpatt + no repair", "yehpatt-none"},
		{"yehpatt + forward walk", "yehpatt-forward"},
		{"yehpatt + perfect", "yehpatt-perfect"},
	}
	names := []string{"tage"}
	for _, row := range rows {
		names = append(names, row.name)
	}
	res, err := r.results(ctx, names...)
	if err != nil {
		return "", err
	}
	base := res[0]
	t := &metrics.Table{Header: []string{"Configuration", "MPKI redn", "IPC gain"}}
	for i, row := range rows {
		t.AddRow(row.label, metrics.Pct(mpkiReduction(base, res[i+1])), metrics.Pct(ipcGain(base, res[i+1])))
	}
	return t.String(), nil
}
