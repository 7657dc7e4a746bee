package harness

import (
	"context"

	"localbp/internal/bpu/loop"
	"localbp/internal/metrics"
	"localbp/internal/repair"
)

// Extension experiment (beyond the paper's figures): the paper argues its
// repair techniques are "extensible to any generic local predictor" (§1,
// §2.3). Ext1 substantiates that claim by swapping CBPw-Loop for a Yeh-Patt
// two-level local predictor — the speculative state becomes an 11-bit
// direction pattern instead of an iteration counter — and re-running the
// repair ladder unchanged.

// YehPattSpec wires the generic local predictor into a scheme.
func YehPattSpec(label string, mk func(lp loop.LocalPredictor) repair.Scheme) Spec {
	s := BaselineSpec()
	s.Label = "yehpatt-" + label
	s.Scheme = func() repair.Scheme { return mk(loop.NewYehPatt(loop.YehPatt128())) }
	return s
}

// Ext1 compares the loop predictor and the generic local predictor under
// no repair, forward-walk repair and perfect repair.
func Ext1(ctx context.Context, r *Runner) (string, error) {
	base := r.ResultsContext(ctx, BaselineSpec())
	p42 := repair.Ports{CkptRead: 4, BHTWrite: 2}

	rows := []struct {
		label string
		spec  Spec
	}{
		{"loop + no repair", NoRepairSpec(loop.Loop128())},
		{"loop + forward walk", ForwardWalkSpec(loop.Loop128(), 32, p42, true)},
		{"loop + perfect", PerfectSpec(loop.Loop128())},
		{"yehpatt + no repair", YehPattSpec("none", func(lp loop.LocalPredictor) repair.Scheme {
			return repair.NewNoneFor(lp)
		})},
		{"yehpatt + forward walk", YehPattSpec("forward", func(lp loop.LocalPredictor) repair.Scheme {
			return repair.NewForwardWalkFor(lp, 32, p42, true)
		})},
		{"yehpatt + perfect", YehPattSpec("perfect", func(lp loop.LocalPredictor) repair.Scheme {
			return repair.NewPerfectFor(lp)
		})},
	}
	t := &metrics.Table{Header: []string{"Configuration", "MPKI redn", "IPC gain"}}
	for _, row := range rows {
		res := r.ResultsContext(ctx, row.spec)
		t.AddRow(row.label, metrics.Pct(mpkiReduction(base, res)), metrics.Pct(ipcGain(base, res)))
	}
	return t.String(), nil
}
