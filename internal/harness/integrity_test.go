package harness

import (
	"errors"
	"testing"

	"localbp/internal/audit"
	"localbp/internal/bpu/loop"
	"localbp/internal/obq"
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

// obqSaboteur is forward walk with coalescing that damages its own OBQ
// through the queue's API after every 53rd fetched branch.
type obqSaboteur struct {
	*repair.ForwardWalk
	fetches int
	damage  func(q *obq.Queue)
}

func (s *obqSaboteur) OnFetchBranch(ctx *repair.BranchCtx, cycle int64) {
	s.ForwardWalk.OnFetchBranch(ctx, cycle)
	if s.fetches++; s.fetches%53 == 0 {
		s.damage(s.OBQ())
	}
}

// skipRepairSaboteur is perfect repair that skips every 5th repair, leaving
// the speculative BHT as the wrong path left it.
type skipRepairSaboteur struct {
	*repair.Perfect
	mispredicts int
}

func (s *skipRepairSaboteur) OnMispredict(ctx *repair.BranchCtx, cycle int64) {
	if s.mispredicts++; s.mispredicts%5 != 0 {
		s.Perfect.OnMispredict(ctx, cycle)
	}
}

// TestFaultDetectionUnderAudit: each saboteur embeds a real scheme and
// breaks one auditable invariant; the auditor must abort the run with a
// structured audit.IntegrityError naming exactly that invariant. The
// auditor's obq-coalesce check has no row: renaming the youngest entry to
// its neighbour's PC trips ckpt-liveness first, and a phantom entry renamed
// to the tail's PC trips obq-order first.
func TestFaultDetectionUnderAudit(t *testing.T) {
	tr := workloads.QuickSuite()[0].Generate(30_000)
	damageOBQ := func(damage func(q *obq.Queue)) func(repair.Scheme) repair.Scheme {
		return func(s repair.Scheme) repair.Scheme {
			return &obqSaboteur{ForwardWalk: s.(*repair.ForwardWalk), damage: damage}
		}
	}
	cases := []struct {
		name, spec, invariant string
		sabotage              func(repair.Scheme) repair.Scheme
	}{
		// The youngest entry's in-flight branch now holds a dead id.
		{"drop-youngest-obq-entry", "forward-coalesce", audit.InvCkptLiveness, damageOBQ(func(q *obq.Queue) {
			if head, tail := q.Bounds(); tail-head >= 2 {
				q.SquashAfter(tail - 2)
			}
		})},
		// A phantom entry that is no younger than the tail.
		{"phantom-obq-entry", "forward-coalesce", audit.InvOBQOrder, damageOBQ(func(q *obq.Queue) {
			if head, tail := q.Bounds(); tail > head && !q.Full() {
				prev := q.Get(tail - 1)
				q.Alloc(prev.PC^0x40, prev.Seq, prev.State)
			}
		})},
		{"negative-obq-runs", "forward-coalesce", audit.InvOBQRuns, damageOBQ(func(q *obq.Queue) {
			_, tail := q.Bounds()
			if e := q.Get(tail - 1); e != nil {
				e.Runs = -1
			}
		})},
		{"skip-perfect-repair", "perfect", audit.InvPerfectResync, func(s repair.Scheme) repair.Scheme {
			return &skipRepairSaboteur{Perfect: s.(*repair.Perfect)}
		}},
	}
	for _, tc := range cases {
		spec := mustSpecFor(tc.spec)
		healthy := spec.Scheme
		spec.Label += "+" + tc.name
		spec.Audit = true
		spec.Scheme = func() repair.Scheme { return tc.sabotage(healthy()) }
		_, err := runTrace(tr, spec)
		var ie *audit.IntegrityError
		if !errors.As(err, &ie) {
			t.Errorf("%s: got %v, want an *audit.IntegrityError", tc.name, err)
			continue
		}
		if ie.Invariant != tc.invariant || ie.Cycle <= 0 {
			t.Errorf("%s: tripped %q at cycle %d, want %q at a positive cycle",
				tc.name, ie.Invariant, ie.Cycle, tc.invariant)
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
