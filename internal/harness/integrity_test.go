package harness

import (
	"errors"
	"testing"

	"localbp/internal/audit"
	"localbp/internal/bpu/loop"
	"localbp/internal/faultinject"
	"localbp/internal/repair"
	"localbp/internal/workloads"
)

// auditSpecs is the scheme matrix the audit tests sweep: it covers the
// baseline (no scheme), full-snapshot repair, both walk directions,
// multi-stage, limited-PC and the generic (Yeh-Patt) predictor, so every
// decorator pairing the auditor must see read-only is exercised.
func auditSpecs() []Spec {
	s, err := specs("tage", "perfect", "retire-update", "snapshot", "backward",
		"forward-coalesce", "multistage", "limited-4pc", "yehpatt-forward")
	if err != nil {
		panic(err)
	}
	return s
}

// TestAuditCleanAcrossSchemes: on healthy runs the auditor and golden model
// must report no violations for any repair scheme (no false positives).
func TestAuditCleanAcrossSchemes(t *testing.T) {
	w := workloads.QuickSuite()[0]
	tr := w.Generate(30_000)
	for _, spec := range auditSpecs() {
		spec.Audit, spec.Golden = true, true
		if _, err := runTrace(tr, spec); err != nil {
			t.Errorf("%s: audited run failed: %v", spec.Label, err)
		}
	}
}

// TestAuditObserverEffectZero is the acceptance criterion of the integrity
// layer: enabling the auditor and the golden model must not change a single
// bit of the reported statistics, for every scheme shape.
func TestAuditObserverEffectZero(t *testing.T) {
	w := workloads.QuickSuite()[1]
	tr := w.Generate(30_000)
	for _, spec := range auditSpecs() {
		plain := spec
		off, err := runTrace(tr, plain)
		if err != nil {
			t.Fatalf("%s: clean run failed: %v", spec.Label, err)
		}
		audited := spec
		audited.Audit, audited.Golden = true, true
		on, err := runTrace(tr, audited)
		if err != nil {
			t.Fatalf("%s: audited run failed: %v", spec.Label, err)
		}
		if off.Stats != on.Stats {
			t.Errorf("%s: core stats changed under audit:\n  off %+v\n  on  %+v", spec.Label, off.Stats, on.Stats)
		}
		if (off.Repair == nil) != (on.Repair == nil) {
			t.Fatalf("%s: repair stats presence changed under audit", spec.Label)
		}
		if off.Repair != nil && *off.Repair != *on.Repair {
			t.Errorf("%s: repair stats changed under audit:\n  off %+v\n  on  %+v", spec.Label, *off.Repair, *on.Repair)
		}
	}
}

// injectCfg builds a single-kind injection config.
func injectCfg(k faultinject.Kind, every uint64) *faultinject.Config {
	return &faultinject.Config{Seed: 1, Every: every, Kinds: []faultinject.Kind{k}}
}

// TestFaultInjectionGraceful: under every fault category, without the
// auditor, the simulation must complete — no panic, no watchdog trip — with
// bounded accuracy loss against the clean run.
func TestFaultInjectionGraceful(t *testing.T) {
	w := workloads.QuickSuite()[2]
	tr := w.Generate(30_000)
	clean, err := runTrace(tr, mustSpecFor("forward-coalesce"))
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	cst := clean.Stats
	for _, k := range faultinject.Kinds() {
		spec := mustSpecFor("forward-coalesce")
		spec.Label = "fwd+" + k.String()
		spec.Inject = injectCfg(k, 53)
		res, err := runTrace(tr, spec)
		if err != nil {
			t.Errorf("%s: faulted run did not complete: %v", k, err)
			continue
		}
		st := res.Stats
		if st.Insts != cst.Insts {
			t.Errorf("%s: retired %d instructions, clean run retired %d", k, st.Insts, cst.Insts)
		}
		// Bounded degradation: a corrupted local predictor can cost accuracy
		// but must never be worse than TAGE-alone by more than a loose margin
		// (the final prediction falls back to TAGE when confidence is lost).
		if limit := 3*cst.MPKI() + 5; st.MPKI() > limit {
			t.Errorf("%s: MPKI %.2f exceeds degradation bound %.2f (clean %.2f)",
				k, st.MPKI(), limit, cst.MPKI())
		}
	}
}

// TestFaultInjectionGracefulUnderPerfect repeats the graceful sweep for the
// perfect-repair scheme (whole-table restores interact differently with
// corrupted state than walk repairs).
func TestFaultInjectionGracefulUnderPerfect(t *testing.T) {
	w := workloads.QuickSuite()[2]
	tr := w.Generate(30_000)
	for _, k := range faultinject.Kinds() {
		if k == faultinject.OBQDrop || k == faultinject.OBQDup {
			continue // perfect repair has no OBQ; the vectors are inert
		}
		spec := PerfectSpec(loop.Loop128())
		spec.Label = "perfect+" + k.String()
		spec.Inject = injectCfg(k, 53)
		if _, err := runTrace(tr, spec); err != nil {
			t.Errorf("%s: faulted run did not complete: %v", k, err)
		}
	}
}

// TestFaultDetectionUnderAudit: the fault categories that violate auditable
// invariants must surface as structured audit.IntegrityError values when the
// auditor is enabled.
func TestFaultDetectionUnderAudit(t *testing.T) {
	w := workloads.QuickSuite()[0]
	tr := w.Generate(30_000)
	cases := []struct {
		kind  faultinject.Kind
		every uint64
		spec  Spec
	}{
		// OBQ damage is visible to the checkpoint-liveness and queue-order
		// scans of any OBQ-backed scheme.
		{faultinject.OBQDrop, 53, mustSpecFor("forward-coalesce")},
		{faultinject.OBQDup, 53, mustSpecFor("forward-coalesce")},
		// A swallowed repair is visible to the perfect-repair resync check.
		{faultinject.RepairDelay, 5, PerfectSpec(loop.Loop128())},
	}
	for _, tc := range cases {
		spec := tc.spec
		spec.Label += "+" + tc.kind.String()
		spec.Audit = true
		spec.Inject = injectCfg(tc.kind, tc.every)
		_, err := runTrace(tr, spec)
		if err == nil {
			t.Errorf("%s: injected fault went undetected", tc.kind)
			continue
		}
		if !errors.Is(err, audit.ErrIntegrity) {
			t.Errorf("%s: failed with %v, want an audit.IntegrityError", tc.kind, err)
		}
		var ie *audit.IntegrityError
		if !errors.As(err, &ie) {
			t.Errorf("%s: error is not a structured *audit.IntegrityError: %v", tc.kind, err)
		} else if ie.Invariant == "" || ie.Cycle <= 0 {
			t.Errorf("%s: integrity error lacks context: %+v", tc.kind, ie)
		}
	}
}

// resyncSaboteur is perfect repair plus one extra BHT write after each
// rollback: it re-allocates the entry of a PC next to the mispredicted
// branch with a fresh count, so a second entry now differs from the BHT at
// the branch's mark.
type resyncSaboteur struct{ *repair.Perfect }

func (s resyncSaboteur) OnMispredict(ctx *repair.BranchCtx, cycle int64) {
	s.Perfect.OnMispredict(ctx, cycle)
	s.Predictor().RestoreState(ctx.PC+4, loop.State{Count: uint16(ctx.Seq), Valid: true})
}

// TestPerfectResyncCheck: the auditor's perfect-repair resync equality
// passes on perfect repair and catches one stray BHT write after the
// rollback, which no other invariant sees.
func TestPerfectResyncCheck(t *testing.T) {
	tr := workloads.QuickSuite()[0].Generate(30_000)
	spec := PerfectSpec(loop.Loop128())
	spec.Audit = true
	if _, err := runTrace(tr, spec); err != nil {
		t.Fatalf("audited perfect repair failed: %v", err)
	}
	spec.Label += "+sabotage"
	spec.Scheme = func() repair.Scheme { return resyncSaboteur{repair.NewPerfect(loop.Loop128())} }
	_, err := runTrace(tr, spec)
	if !errors.Is(err, audit.ErrIntegrity) {
		t.Fatalf("sabotaged perfect repair returned %v, want an audit.IntegrityError", err)
	}
	var ie *audit.IntegrityError
	if !errors.As(err, &ie) || ie.Invariant != audit.InvPerfectResync {
		t.Fatalf("sabotaged perfect repair tripped %v, want invariant %q", err, audit.InvPerfectResync)
	}
}

// TestGoldenModelCatchesStreamSkew: a deliberately truncated golden program
// must trip the oracle at the first retirement past the truncation point,
// proving the lockstep comparison is actually engaged.
func TestGoldenModelCatchesStreamSkew(t *testing.T) {
	w := workloads.QuickSuite()[0]
	tr := w.Generate(30_000)
	spec := BaselineSpec()
	g := audit.NewGolden(tr[:len(tr)-1])
	spec.Core.Golden = g
	_, err := runTrace(tr, spec)
	if err == nil {
		t.Fatal("golden model accepted a truncated program")
	}
	if !errors.Is(err, audit.ErrIntegrity) {
		t.Fatalf("golden divergence reported as %v, want audit.ErrIntegrity", err)
	}
}

// TestAuditSampleOption: Options.AuditSample must leave sweep results
// bit-identical to an unsampled sweep (the sampled runs are fully audited
// but report the same statistics).
func TestAuditSampleOption(t *testing.T) {
	spec := mustSpecFor("forward-coalesce")
	plain := NewRunner(Options{Insts: 20_000, Quick: true}).Run(spec)
	sampled := NewRunner(Options{Insts: 20_000, Quick: true, AuditSample: 3}).Run(spec)
	if len(plain) != len(sampled) {
		t.Fatalf("outcome counts differ: %d vs %d", len(plain), len(sampled))
	}
	for i := range plain {
		if plain[i].Err != nil || sampled[i].Err != nil {
			t.Fatalf("workload %d failed: %v / %v", i, plain[i].Err, sampled[i].Err)
		}
		if plain[i].Result != sampled[i].Result {
			t.Errorf("workload %d: results diverge under audit sampling:\n  off %+v\n  on  %+v",
				i, plain[i].Result, sampled[i].Result)
		}
	}
}
