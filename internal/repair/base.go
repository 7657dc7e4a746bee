package repair

import (
	"localbp/internal/bpu/loop"
	"localbp/internal/obs"
)

// schemeBase holds the machinery shared by the single-BHT schemes: the loop
// predictor, the busy window during which the BHT can neither predict nor be
// updated/checkpointed (paper §2.5 issues a-b), and statistics.
type schemeBase struct {
	lp        loop.LocalPredictor
	st        Stats
	busyUntil int64

	// repairSeq is the Seq of the branch whose repair is in progress;
	// used to merge/restart overlapping repairs (paper §2.5 issue c).
	repairSeq  uint64
	repairLive bool

	// Observability (nil when disabled).
	tr      *obs.Tracer
	durHist *obs.Histogram
}

func (b *schemeBase) busy(cycle int64) bool { return cycle < b.busyUntil }

// BusyUntil implements BusyReporter: the cycle at which the current repair's
// busy window closes.
func (b *schemeBase) BusyUntil() int64 { return b.busyUntil }

// AttachObs implements ObsAttacher: registers the repair counters as a pull
// source named "repair", the per-repair busy-duration histogram, and the
// EvRepair trace stream.
func (b *schemeBase) AttachObs(reg *obs.Registry, tr *obs.Tracer) {
	if reg != nil {
		reg.AddSource("repair", b.st.EmitCounters)
		b.durHist = reg.Histogram("repair.busy", obs.RepairBuckets)
	}
	b.tr = tr
}

// beginBusy extends the busy window by dur cycles starting at cycle and
// accounts the added unavailability. pc is the mispredicting branch, used
// only for trace events.
func (b *schemeBase) beginBusy(pc uint64, cycle, dur int64) {
	end := cycle + dur
	start := cycle
	if b.busyUntil > start {
		start = b.busyUntil // overlapping repair: only the extension counts
	}
	if end > start {
		b.st.BusyCycles += uint64(end - start)
	}
	if end > b.busyUntil {
		b.busyUntil = end
	}
	if b.durHist != nil {
		b.durHist.Observe(dur)
	}
	if b.tr != nil {
		b.tr.Emit(obs.EvRepair, cycle, pc, dur)
	}
}

// FetchPredict implements Scheme.
func (b *schemeBase) FetchPredict(pc uint64, cycle int64) loop.Prediction {
	if b.busy(cycle) {
		return loop.Prediction{}
	}
	return b.lp.Predict(pc)
}

// specUpdate performs the fetch-time speculative BHT update common to all
// speculative schemes and records the pre-update state into ctx.
// It returns false when the BHT is busy and the update had to be skipped.
func (b *schemeBase) specUpdate(ctx *BranchCtx, cycle int64) bool {
	if b.busy(cycle) {
		// The update cannot be applied, so the tracked count goes stale;
		// the valid bit is reset and a later direction flip re-syncs the
		// entry (paper §2.5b / §3.2 valid-bit machinery).
		b.lp.Invalidate(ctx.PC)
		ctx.CkptSkipped = true
		b.st.CkptMisses++
		return false
	}
	st, had := b.lp.LookupState(ctx.PC)
	ctx.PreState, ctx.HadState = st, had
	ctx.Allocated = b.lp.SpecUpdate(ctx.PC, ctx.PredTaken)
	if ctx.Allocated {
		// Remember the allocated direction so that restoring the
		// pre-update (absent) state keeps the entry's direction sane.
		if pt := b.lp.PatternInfo(ctx.PC); pt.Valid {
			ctx.PreState.Dir = pt.Dir
		}
	}
	return true
}

// AllocCheck implements Scheme: single-stage schemes never defer.
func (b *schemeBase) AllocCheck(*BranchCtx, int64) (bool, bool) { return false, false }

// OnCorrectResolve implements Scheme: nothing to do by default.
func (b *schemeBase) OnCorrectResolve(*BranchCtx, int64) {}

// OnRetire implements Scheme: train the PT.
func (b *schemeBase) OnRetire(ctx *BranchCtx, finalMisp bool) {
	b.lp.Retire(ctx.PC, ctx.ActualTaken, finalMisp)
}

// OnSquash implements Scheme: nothing to release by default.
func (b *schemeBase) OnSquash(*BranchCtx) {}

// Stats implements Scheme.
func (b *schemeBase) Stats() *Stats { return &b.st }

// Predictor exposes the underlying local predictor (introspection).
func (b *schemeBase) Predictor() loop.LocalPredictor { return b.lp }

// penalize applies the wrong-override confidence penalty (see
// loop.PatternTable.Penalize) when the mispredicted branch used a loop
// override.
func (b *schemeBase) penalize(ctx *BranchCtx) {
	if ctx.UsedLoop {
		b.lp.PenalizeOverride(ctx.PC)
	}
}

// noteNeeded records a Figure 8 "entries needing repair" sample.
func (b *schemeBase) noteNeeded(n int) {
	b.st.NeededSum += uint64(n)
	b.st.NeededSamples++
	if n > b.st.NeededMax {
		b.st.NeededMax = n
	}
}

// None is the no-repair scheme: the BHT is updated speculatively and never
// recovered, demonstrating that an unrepaired local predictor forfeits its
// gains and can lose performance (paper §2.7, Figure 9).
type None struct {
	schemeBase
}

// NewNone builds the scheme around a fresh CBPw-Loop predictor with cfg.
func NewNone(cfg loop.Config) *None { return NewNoneFor(loop.New(cfg)) }

// NewNoneFor builds the scheme around any local predictor.
func NewNoneFor(lp loop.LocalPredictor) *None { return &None{schemeBase{lp: lp}} }

// Name implements Scheme.
func (s *None) Name() string { return "no-repair" }

// OnFetchBranch implements Scheme.
func (s *None) OnFetchBranch(ctx *BranchCtx, cycle int64) { s.specUpdate(ctx, cycle) }

// OnMispredict implements Scheme: the state stays corrupted.
func (s *None) OnMispredict(ctx *BranchCtx, cycle int64) {
	s.penalize(ctx)
	s.st.Unrepaired++
}

// StorageBits implements Scheme.
func (s *None) StorageBits() int { return s.lp.StorageBits() }

// RetireUpdate defers all BHT updates to instruction retirement: no
// speculative state exists, so no repair is needed, but the BHT view lags
// the front end by the full pipeline depth (paper §6.2, Figure 9). A per-PC
// in-flight counter (incremented at fetch, decremented at retire or squash)
// offsets the lag so the delayed count is usable at all; the scheme still
// loses whenever flushes make the offset wrong, and the paper notes the
// gains shrink as pipelines deepen.
type RetireUpdate struct {
	schemeBase
	inflight map[uint64]int
}

// NewRetireUpdate builds the scheme around a fresh CBPw-Loop predictor.
func NewRetireUpdate(cfg loop.Config) *RetireUpdate {
	return NewRetireUpdateFor(loop.New(cfg))
}

// NewRetireUpdateFor builds the scheme around any local predictor.
func NewRetireUpdateFor(lp loop.LocalPredictor) *RetireUpdate {
	return &RetireUpdate{
		schemeBase: schemeBase{lp: lp},
		inflight:   make(map[uint64]int),
	}
}

// Name implements Scheme.
func (s *RetireUpdate) Name() string { return "retire-update" }

// FetchPredict implements Scheme: offset the retire-lagged count by the
// branch's in-flight instances.
func (s *RetireUpdate) FetchPredict(pc uint64, cycle int64) loop.Prediction {
	n := s.inflight[pc]
	if n < 0 {
		n = 0
	}
	return s.lp.PredictWithOffset(pc, uint16(n))
}

// OnFetchBranch implements Scheme: no speculative BHT update; only the
// in-flight counter advances.
func (s *RetireUpdate) OnFetchBranch(ctx *BranchCtx, cycle int64) {
	s.inflight[ctx.PC]++
	ctx.InflightMark = true
}

// OnMispredict implements Scheme: nothing in the BHT itself needs repair;
// the pipeline's flush walk reclaims the in-flight marks of squashed
// instructions (OnSquash), the same bulk walk that frees their other
// resources.
func (s *RetireUpdate) OnMispredict(ctx *BranchCtx, cycle int64) {
	s.penalize(ctx)
}

// OnSquash implements Scheme: reclaim the squashed instruction's mark.
func (s *RetireUpdate) OnSquash(ctx *BranchCtx) { s.unmark(ctx) }

func (s *RetireUpdate) unmark(ctx *BranchCtx) {
	if !ctx.InflightMark {
		return
	}
	ctx.InflightMark = false
	switch n := s.inflight[ctx.PC]; {
	case n > 1:
		s.inflight[ctx.PC] = n - 1
	case n == 1:
		delete(s.inflight, ctx.PC)
	}
}

// OnRetire implements Scheme: the BHT advances with the architectural
// outcome, then the PT trains. A retiring exit re-anchors the in-flight
// counter: the run restarts, so any flush-leaked over-count clears.
func (s *RetireUpdate) OnRetire(ctx *BranchCtx, finalMisp bool) {
	s.unmark(ctx)
	s.lp.SpecUpdate(ctx.PC, ctx.ActualTaken)
	s.lp.Retire(ctx.PC, ctx.ActualTaken, finalMisp)
	if pt := s.lp.PatternInfo(ctx.PC); pt.Valid && ctx.ActualTaken != pt.Dir {
		delete(s.inflight, ctx.PC)
	}
}

// StorageBits implements Scheme: predictor plus a 4-bit in-flight counter
// per BHT entry.
func (s *RetireUpdate) StorageBits() int { return s.lp.StorageBits() + s.lp.Entries()*4 }

// Perfect is the oracle: unbounded checkpoint storage and zero-cycle repair.
// Every branch marks the BHT's undo journal; a misprediction rolls the whole
// table back to its mark instantly. It defines the 100% line all realistic
// schemes are normalized against, and its rollback counts are the Figure 8
// data.
type Perfect struct {
	schemeBase
}

// NewPerfect builds the oracle around a fresh CBPw-Loop predictor.
func NewPerfect(cfg loop.Config) *Perfect { return NewPerfectFor(loop.New(cfg)) }

// NewPerfectFor builds the oracle around any local predictor.
func NewPerfectFor(lp loop.LocalPredictor) *Perfect {
	return &Perfect{schemeBase: schemeBase{lp: lp}}
}

// Name implements Scheme.
func (s *Perfect) Name() string { return "perfect" }

// OnFetchBranch implements Scheme: checkpoint everything.
func (s *Perfect) OnFetchBranch(ctx *BranchCtx, cycle int64) {
	s.specUpdate(ctx, cycle)
	// The mark is taken after this branch's own SpecUpdate; repair
	// rewinds the branch itself separately from ctx.PreState.
	ctx.Mark = s.lp.Mark()
	ctx.MarkValid = true
}

// OnMispredict implements Scheme: instant, complete restore.
func (s *Perfect) OnMispredict(ctx *BranchCtx, cycle int64) {
	s.penalize(ctx)
	if !ctx.MarkValid {
		s.st.Unrepaired++
		return
	}
	n := s.lp.Rollback(ctx.Mark)
	s.noteNeeded(n)
	s.st.RepairWrites += uint64(n)
	// The mark holds post-SpecUpdate state for this branch; rewind to
	// the pre-update state, then apply the architectural outcome.
	if ctx.HadState || ctx.Allocated {
		s.lp.RestoreState(ctx.PC, ctx.PreState)
	}
	s.lp.ApplyOutcome(ctx.PC, ctx.ActualTaken)
	s.st.Repairs++
}

// OnRetire implements Scheme. Branches retire in program order, so the
// retiring branch holds the oldest live mark and the journal records before
// it can go. A squashed branch's mark is younger than its mispredicted
// ancestor's, which is still live, so squashes release nothing.
func (s *Perfect) OnRetire(ctx *BranchCtx, finalMisp bool) {
	if ctx.MarkValid {
		s.lp.Release(ctx.Mark)
	}
	s.schemeBase.OnRetire(ctx, finalMisp)
}

// StorageBits implements Scheme: the oracle's storage is unbounded; report
// the predictor only (Table 3 lists it as NA).
func (s *Perfect) StorageBits() int { return s.lp.StorageBits() }
