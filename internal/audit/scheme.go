package audit

import (
	"fmt"

	"localbp/internal/bpu/loop"
	"localbp/internal/obq"
	"localbp/internal/repair"
)

// predictorHolder matches schemes exposing a primary local predictor
// (schemeBase and its derivatives; the bpu chooser uses the same surface).
type predictorHolder interface {
	Predictor() loop.LocalPredictor
}

// obqHolder matches schemes whose checkpoints live in a real OBQ (the walk
// schemes and multi-stage). Snapshot reuses ctx.OBQID for its own snapshot
// ring and deliberately does not implement this, so OBQ invariants are never
// misapplied to it.
type obqHolder interface {
	OBQ() *obq.Queue
}

// schemeAuditor decorates a repair.Scheme with invariant checks. All checks
// are read-only (Walk, Get, LookupState, DiffSince); the wrapped scheme's
// behaviour — and therefore every reported statistic — is bit-identical to
// the unwrapped scheme.
type schemeAuditor struct {
	inner     repair.Scheme
	aud       *Auditor
	lp        loop.LocalPredictor // nil when inner exposes no single predictor
	q         *obq.Queue          // nil when inner has no OBQ
	fetches   int64               // OnFetchBranch events, for periodic scans
	lastCycle int64               // latest cycle seen, for cycle-less hooks (OnRetire)
}

// WrapScheme decorates s with the auditor's scheme-level invariants: OBQ
// structural consistency (periodic), checkpoint liveness at every use, and
// the perfect-repair resync equality (after a restore the speculative BHT
// must match the BHT at the branch's mark except the branch's own entry).
// The wrapper forwards Predictor()/OBQ() introspection so chooser behaviour
// (bpu oracle coverage) is unchanged.
func WrapScheme(s repair.Scheme, a *Auditor) repair.Scheme {
	w := &schemeAuditor{inner: s, aud: a}
	if ph, ok := s.(predictorHolder); ok {
		w.lp = ph.Predictor()
	}
	if qh, ok := s.(obqHolder); ok {
		w.q = qh.OBQ()
	}
	return w
}

// Predictor exposes the wrapped scheme's local predictor (nil when it has
// none); keeping the method on the wrapper preserves oracle coverage.
func (w *schemeAuditor) Predictor() loop.LocalPredictor { return w.lp }

// OBQ exposes the wrapped scheme's OBQ (nil when it has none).
func (w *schemeAuditor) OBQ() *obq.Queue { return w.q }

// Name implements repair.Scheme; the audited scheme reports under its own
// name so labels and memoization keys are unchanged.
func (w *schemeAuditor) Name() string { return w.inner.Name() }

// FetchPredict implements repair.Scheme.
func (w *schemeAuditor) FetchPredict(pc uint64, cycle int64) loop.Prediction {
	w.lastCycle = cycle
	return w.inner.FetchPredict(pc, cycle)
}

// OnFetchBranch implements repair.Scheme, running the periodic OBQ
// structural scan every scanStride fetched branches.
func (w *schemeAuditor) OnFetchBranch(ctx *repair.BranchCtx, cycle int64) {
	w.lastCycle = cycle
	w.inner.OnFetchBranch(ctx, cycle)
	w.fetches++
	if w.q != nil && w.fetches%scanStride == 0 {
		w.checkOBQ(cycle)
	}
}

// AllocCheck implements repair.Scheme.
func (w *schemeAuditor) AllocCheck(ctx *repair.BranchCtx, cycle int64) (bool, bool) {
	return w.inner.AllocCheck(ctx, cycle)
}

// OnMispredict implements repair.Scheme: checkpoint liveness before the
// repair consumes the entry, context sanity, and — for schemes that mark
// the whole BHT per branch (Perfect) — the paper's resync equality: after
// the restore, the speculative BHT equals the BHT at the branch's mark
// except for the mispredicting branch's own entry (rewound and re-applied).
func (w *schemeAuditor) OnMispredict(ctx *repair.BranchCtx, cycle int64) {
	w.lastCycle = cycle
	w.aud.Note(2)
	if ctx.WrongPath {
		w.aud.Report(cycle, ctx.PC, InvSchemeCtx,
			fmt.Sprintf("  OnMispredict on a wrong-path branch (seq=%d)", ctx.Seq))
	}
	if ctx.PredTaken == ctx.ActualTaken {
		w.aud.Report(cycle, ctx.PC, InvSchemeCtx,
			fmt.Sprintf("  OnMispredict with matching prediction (pred=%v actual=%v seq=%d)",
				ctx.PredTaken, ctx.ActualTaken, ctx.Seq))
	}
	w.checkCkptLive(ctx, cycle, "mispredict")

	w.inner.OnMispredict(ctx, cycle)

	if ctx.MarkValid && w.lp != nil {
		w.aud.Note(1)
		if diff := w.lp.DiffSince(ctx.Mark); diff > 1 {
			w.aud.Report(cycle, ctx.PC, InvPerfectResync, fmt.Sprintf(
				"  after perfect-repair resync, %d BHT entries still differ from the BHT at the branch's mark (at most 1 — the branch's own — may)",
				diff))
		}
	}
}

// OnCorrectResolve implements repair.Scheme.
func (w *schemeAuditor) OnCorrectResolve(ctx *repair.BranchCtx, cycle int64) {
	w.lastCycle = cycle
	w.aud.Note(1)
	if ctx.PredTaken != ctx.ActualTaken {
		w.aud.Report(cycle, ctx.PC, InvSchemeCtx,
			fmt.Sprintf("  OnCorrectResolve with mismatched prediction (pred=%v actual=%v seq=%d)",
				ctx.PredTaken, ctx.ActualTaken, ctx.Seq))
	}
	w.inner.OnCorrectResolve(ctx, cycle)
}

// OnRetire implements repair.Scheme: the branch's checkpoint entry must
// still be live (and match) at the moment the retiring branch releases it.
// The hook carries no cycle, so reports use the latest cycle the wrapper saw.
func (w *schemeAuditor) OnRetire(ctx *repair.BranchCtx, finalMisp bool) {
	w.checkCkptLive(ctx, w.lastCycle, "retire")
	w.inner.OnRetire(ctx, finalMisp)
}

// OnSquash implements repair.Scheme. Squashed branches may legitimately
// reference already-squashed OBQ entries, so no liveness check here.
func (w *schemeAuditor) OnSquash(ctx *repair.BranchCtx) { w.inner.OnSquash(ctx) }

// Stats implements repair.Scheme.
func (w *schemeAuditor) Stats() *repair.Stats { return w.inner.Stats() }

// StorageBits implements repair.Scheme.
func (w *schemeAuditor) StorageBits() int { return w.inner.StorageBits() }

// BusyUntil implements repair.BusyReporter by forwarding to the wrapped
// scheme (0 — never busy — when it does not report).
func (w *schemeAuditor) BusyUntil() int64 {
	if br, ok := w.inner.(repair.BusyReporter); ok {
		return br.BusyUntil()
	}
	return 0
}

// checkCkptLive verifies that the OBQ entries a correct-path branch carries
// (ctx.OBQID for single-stage walk schemes, ctx.DeferOBQID for multi-stage)
// are live and still describe this branch: a dropped, recycled or duplicated
// entry shows up here as a dead id, a foreign PC, or a younger Seq.
func (w *schemeAuditor) checkCkptLive(ctx *repair.BranchCtx, cycle int64, where string) {
	if w.q == nil {
		return
	}
	for _, id := range [...]int64{ctx.OBQID, ctx.DeferOBQID} {
		if id < 0 {
			continue
		}
		w.aud.Note(1)
		e := w.q.Get(id)
		switch {
		case e == nil:
			head, tail := w.q.Bounds()
			w.aud.Report(cycle, ctx.PC, InvCkptLiveness, fmt.Sprintf(
				"  at %s: checkpoint entry %d for pc=%#x seq=%d is dead (obq live range [%d,%d))",
				where, id, ctx.PC, ctx.Seq, head, tail))
		case e.PC != ctx.PC || e.Seq > ctx.Seq:
			w.aud.Report(cycle, ctx.PC, InvCkptLiveness, fmt.Sprintf(
				"  at %s: checkpoint entry %d holds pc=%#x seq=%d, branch is pc=%#x seq=%d",
				where, id, e.PC, e.Seq, ctx.PC, ctx.Seq))
		}
	}
}

// checkOBQ is the periodic structural scan over the live OBQ window:
// occupancy within capacity, Seq strictly increasing head→tail, coalesced
// run counts non-negative, and — with coalescing — no two adjacent live
// entries sharing a PC (they would have been merged at allocation).
func (w *schemeAuditor) checkOBQ(cycle int64) {
	q := w.q
	head, tail := q.Bounds()
	w.aud.Note(1 + int(tail-head))
	if n := q.Len(); n < 0 || n > q.Cap() || int(tail-head) != n {
		w.aud.Report(cycle, 0, InvOBQBounds, fmt.Sprintf(
			"  obq occupancy %d outside [0,%d] (head=%d tail=%d)", n, q.Cap(), head, tail))
		return
	}
	var prev *obq.Entry
	var prevID int64
	q.Walk(head, func(id int64, e *obq.Entry) {
		if e.Runs < 0 {
			w.aud.Report(cycle, e.PC, InvOBQRuns, fmt.Sprintf(
				"  obq entry %d (pc=%#x seq=%d) has negative run count %d", id, e.PC, e.Seq, e.Runs))
		}
		if prev != nil {
			if e.Seq <= prev.Seq {
				w.aud.Report(cycle, e.PC, InvOBQOrder, fmt.Sprintf(
					"  obq entry %d (pc=%#x seq=%d) not younger than entry %d (pc=%#x seq=%d)",
					id, e.PC, e.Seq, prevID, prev.PC, prev.Seq))
			}
			if q.Coalescing() && e.PC == prev.PC {
				w.aud.Report(cycle, e.PC, InvOBQCoalesce, fmt.Sprintf(
					"  adjacent obq entries %d and %d share pc=%#x under coalescing (seq %d, %d)",
					prevID, id, e.PC, prev.Seq, e.Seq))
			}
		}
		prev, prevID = e, id
	})
}
