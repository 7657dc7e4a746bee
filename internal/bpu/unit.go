// Package bpu assembles the branch prediction unit the core drives: the
// TAGE baseline, an optional local-predictor scheme (CBPw-Loop plus one of
// the repair mechanisms of internal/repair), and the chooser that arbitrates
// between them (the WITHLOOP-style counter of TAGE-SC-L).
package bpu

import (
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/repair"
)

// BranchRec is the full per-branch record carried from fetch to retirement:
// the repair context, TAGE metadata and the GHIST/PHIST checkpoint.
type BranchRec struct {
	Ctx      repair.BranchCtx
	TageMeta tage.Meta
	TagePred bool
	Ckpt     tage.Checkpoint

	Squashed bool
	InFlight bool // guards pool recycling while queued for resolution
}

// Unit is the branch prediction unit.
type Unit struct {
	Tage   *tage.Predictor
	Scheme repair.Scheme // nil for the TAGE-only baseline

	// Oracle replaces the local prediction with the architectural outcome
	// for every PC the pattern table tracks: the "highly accurate local
	// predictor with no misprediction" of Figure 4.
	Oracle bool

	withLoop int // chooser: >= 0 means trust the loop predictor

	pool []*BranchRec

	statOverrides        uint64
	statOverridesCorrect uint64
}

// The chooser saturates high slowly but recovers from distrust quickly
// (floor at withLoopMin): an unrepaired, corrupted local predictor keeps
// being re-tried and keeps costing mispredictions, as the paper observes for
// the MM and BP categories (Figure 4).
const (
	withLoopMax = 7
	withLoopMin = -2
)

// NewUnit builds a unit around a TAGE configuration and an optional scheme.
func NewUnit(tcfg tage.Config, scheme repair.Scheme) *Unit {
	return &Unit{Tage: tage.New(tcfg), Scheme: scheme}
}

// Prealloc grows the record pool to at least n entries, batch-allocating the
// records and their TAGE metadata/checkpoint storage out of shared arenas.
// The core calls it once at construction with its in-flight branch bound, so
// the steady-state GetRec/PutRec cycle never allocates. A pool that ever
// runs dry falls back to lazy per-record allocation.
func (u *Unit) Prealloc(n int) {
	have := len(u.pool)
	if have >= n {
		return
	}
	add := n - have
	if cap(u.pool) < n {
		pool := make([]*BranchRec, have, n+16)
		copy(pool, u.pool)
		u.pool = pool
	}
	recs := make([]BranchRec, add)
	if u.Tage != nil {
		ms := make([]*tage.Meta, add)
		cks := make([]*tage.Checkpoint, add)
		for i := range recs {
			ms[i] = &recs[i].TageMeta
			cks[i] = &recs[i].Ckpt
		}
		u.Tage.PrimeMetas(ms)
		u.Tage.PrimeCheckpoints(cks)
	}
	for i := range recs {
		u.pool = append(u.pool, &recs[i])
	}
}

// GetRec returns a reset branch record from the pool.
func (u *Unit) GetRec() *BranchRec {
	var r *BranchRec
	if n := len(u.pool); n > 0 {
		r = u.pool[n-1]
		u.pool = u.pool[:n-1]
	} else {
		r = &BranchRec{}
	}
	repair.ResetCtx(&r.Ctx)
	r.Squashed = false
	r.InFlight = false
	return r
}

// PutRec returns a record to the pool.
func (u *Unit) PutRec(r *BranchRec) { u.pool = append(u.pool, r) }

// localPredictor exposes the primary local predictor of single-BHT schemes.
type localPredictor interface {
	Predictor() loop.LocalPredictor
}

// oracleCovers reports whether the oracle local predictor tracks pc.
func (u *Unit) oracleCovers(pc uint64) bool {
	lp, ok := u.Scheme.(localPredictor)
	if !ok {
		return false
	}
	p := lp.Predictor()
	if p == nil {
		// The audit wrapper advertises the method even when the wrapped
		// scheme has no single primary predictor.
		return false
	}
	info := p.PatternInfo(pc)
	// Only branches with genuine local structure count as covered: the
	// PT must have confirmed a repeating period at least once. Without
	// the gate the oracle would also cover random branches that merely
	// allocated an entry, overstating the Figure 4 opportunity.
	return info.Valid && info.Period >= 2 && info.Conf >= 1
}

// Predict runs the fetch-stage prediction flow for a conditional branch:
// TAGE predicts, the local scheme may override (subject to the chooser),
// speculative histories advance, and the scheme checkpoints/updates its BHT.
// It returns the final predicted direction.
func (u *Unit) Predict(rec *BranchRec, pc uint64, actual bool, seq uint64, wrongPath bool, cycle int64) bool {
	ctx := &rec.Ctx
	ctx.PC = pc
	ctx.Seq = seq
	ctx.ActualTaken = actual
	ctx.WrongPath = wrongPath

	rec.TagePred = u.Tage.Predict(pc, &rec.TageMeta)
	u.Tage.SaveCheckpoint(&rec.Ckpt)

	final := rec.TagePred
	if u.Scheme != nil {
		if u.Oracle {
			if u.oracleCovers(pc) {
				final = actual
			}
		} else {
			lp := u.Scheme.FetchPredict(pc, cycle)
			if lp.Valid {
				ctx.LoopValid, ctx.LoopTaken = true, lp.Taken
				if lp.Taken != rec.TagePred && u.withLoop >= 0 {
					final = lp.Taken
					ctx.UsedLoop = true
					u.statOverrides++
					if final == actual && !wrongPath {
						u.statOverridesCorrect++
					}
				}
			}
		}
	}
	ctx.PredTaken = final

	u.Tage.SpecUpdateHistory(pc, final)
	if u.Scheme != nil {
		u.Scheme.OnFetchBranch(ctx, cycle)
	}
	return final
}

// AllocStage gives deferred schemes their allocation-stage shot. When the
// scheme overrides, the record's prediction is rewritten and resteer is
// true; the caller re-steers the front end.
func (u *Unit) AllocStage(rec *BranchRec, cycle int64) (resteer bool) {
	if u.Scheme == nil {
		return false
	}
	rec.Ctx.OverrideAllowed = u.withLoop >= 0
	override, dir := u.Scheme.AllocCheck(&rec.Ctx, cycle)
	if !override {
		return false
	}
	rec.Ctx.PredTaken = dir
	u.statOverrides++
	if dir == rec.Ctx.ActualTaken && !rec.Ctx.WrongPath {
		u.statOverridesCorrect++
	}
	// The speculative history recorded the old direction; rewind to the
	// branch and push the corrected one.
	u.Tage.RestoreCheckpoint(&rec.Ckpt)
	u.Tage.SpecUpdateHistory(rec.Ctx.PC, dir)
	return true
}

// Resolve is called when a correct-path branch executes. It trains TAGE,
// updates the chooser, restores the speculative history on a misprediction
// and triggers the scheme's repair. It returns whether the final prediction
// was wrong.
func (u *Unit) Resolve(rec *BranchRec, cycle int64) (mispredicted bool) {
	ctx := &rec.Ctx
	actual := ctx.ActualTaken
	mispredicted = ctx.PredTaken != actual

	// Chooser: learn which side to trust when they disagree.
	if ctx.LoopValid && ctx.LoopTaken != rec.TagePred {
		if ctx.LoopTaken == actual {
			if u.withLoop < withLoopMax {
				u.withLoop++
			}
		} else if rec.TagePred == actual {
			if u.withLoop > withLoopMin {
				u.withLoop--
			}
		}
	}

	u.Tage.Update(&rec.TageMeta, actual, mispredicted)

	if mispredicted {
		u.Tage.RestoreCheckpoint(&rec.Ckpt)
		u.Tage.SpecUpdateHistory(ctx.PC, actual)
		if u.Scheme != nil {
			u.Scheme.OnMispredict(ctx, cycle)
		}
	} else if u.Scheme != nil {
		u.Scheme.OnCorrectResolve(ctx, cycle)
	}
	return mispredicted
}

// Retire is called when a correct-path branch retires.
func (u *Unit) Retire(rec *BranchRec) {
	if u.Scheme != nil {
		finalMisp := rec.Ctx.PredTaken != rec.Ctx.ActualTaken
		u.Scheme.OnRetire(&rec.Ctx, finalMisp)
	}
	u.PutRec(rec)
}

// Squash is called when an in-flight branch is flushed.
func (u *Unit) Squash(rec *BranchRec) {
	if u.Scheme != nil {
		u.Scheme.OnSquash(&rec.Ctx)
	}
	rec.Squashed = true
	if !rec.InFlight {
		u.PutRec(rec)
	}
}

// OverrideStats returns (overrides, correct overrides) of the local scheme.
func (u *Unit) OverrideStats() (uint64, uint64) {
	return u.statOverrides, u.statOverridesCorrect
}
