package repair

import (
	"fmt"

	"localbp/internal/bpu/loop"
	"localbp/internal/obq"
	"localbp/internal/obs"
)

// MultiStage is contribution 2 (paper §3.2): two-stage prediction with a
// split BHT. BHT-TAGE sits in the branch prediction stage and overrides
// immediately; it is speculatively updated but never checkpointed. BHT-Defer
// sits at the allocation queue: its entries are checkpointed in an OBQ and
// forward-walk repaired. When BHT-Defer disagrees with the in-flight
// prediction, the pipeline is re-steered early (a cheap front-end flush).
//
// On a misprediction, BHT-Defer repairs from the OBQ, then BHT-TAGE repairs
// from BHT-Defer's repaired entries using its ordinary prediction ports —
// no additional repair ports (Table 3 lists this design as 4/0). During the
// two-stage repair window BHT-TAGE gives no predictions, and instructions
// that enter the pipeline have their BHT-TAGE valid bits reset; a direction
// flip later re-validates them.
type MultiStage struct {
	st Stats

	bhtTage  *loop.Predictor
	bhtDefer *loop.Predictor
	sharedPT bool
	q        *obq.Queue

	predictPorts int
	busyTage     int64
	busyDefer    int64

	// repaired collects (PC, state) pairs from the BHT-Defer walk for the
	// second-stage copy into BHT-TAGE; reused across repairs.
	repaired []PCState

	// Observability (nil when disabled).
	tr      *obs.Tracer
	durHist *obs.Histogram
}

// NewMultiStage builds the split-BHT scheme. cfg describes the *combined*
// capacity (e.g. Loop128): each stage receives half the entries (paper
// §3.2.1). sharedPT keeps one full-size PT accessed by both stages; split
// gives each stage its own half-size PT.
func NewMultiStage(cfg loop.Config, obqEntries int, sharedPT bool) *MultiStage {
	half := cfg
	half.Entries = cfg.Entries / 2
	s := &MultiStage{sharedPT: sharedPT, predictPorts: 4}
	if sharedPT {
		pt := loop.NewPatternTableFor(cfg)
		s.bhtTage = loop.NewWithPT(half, pt)
		s.bhtDefer = loop.NewWithPT(half, pt)
	} else {
		half.PTEntries = half.Entries
		s.bhtTage = loop.New(half)
		s.bhtDefer = loop.New(half)
	}
	s.q = obq.New(obqEntries, false)
	return s
}

// Name implements Scheme.
func (s *MultiStage) Name() string {
	if s.sharedPT {
		return fmt.Sprintf("multistage-split-bht-shared-pt-%d", s.q.Cap())
	}
	return fmt.Sprintf("multistage-split-bht-split-pt-%d", s.q.Cap())
}

// OBQ exposes the BHT-Defer history file (read-only introspection for the
// integrity auditor's structural scans).
func (s *MultiStage) OBQ() *obq.Queue { return s.q }

// BusyUntil implements BusyReporter: the later of the two stages' repair
// windows.
func (s *MultiStage) BusyUntil() int64 {
	if s.busyTage > s.busyDefer {
		return s.busyTage
	}
	return s.busyDefer
}

// AttachObs implements ObsAttacher.
func (s *MultiStage) AttachObs(reg *obs.Registry, tr *obs.Tracer) {
	if reg != nil {
		reg.AddSource("repair", s.st.EmitCounters)
		s.durHist = reg.Histogram("repair.busy", obs.RepairBuckets)
	}
	s.tr = tr
	s.q.AttachObs(reg, tr)
}

// FetchPredict implements Scheme: BHT-TAGE answers at the prediction stage
// unless its repair window is open.
func (s *MultiStage) FetchPredict(pc uint64, cycle int64) loop.Prediction {
	if cycle < s.busyTage {
		return loop.Prediction{}
	}
	return s.bhtTage.Predict(pc)
}

// OnFetchBranch implements Scheme: speculative BHT-TAGE update only; no
// checkpointing at this stage.
func (s *MultiStage) OnFetchBranch(ctx *BranchCtx, cycle int64) {
	if cycle < s.busyTage {
		// Instructions entering during the repair window get their
		// BHT-TAGE valid bits reset to avoid incorrect overrides.
		s.bhtTage.Invalidate(ctx.PC)
		return
	}
	st, had := s.bhtTage.LookupState(ctx.PC)
	ctx.PreState, ctx.HadState = st, had
	s.bhtTage.SpecUpdate(ctx.PC, ctx.PredTaken)
}

// AllocCheck implements Scheme: BHT-Defer predicts, checkpoints and updates
// at the allocation stage, and may request an early resteer (override).
func (s *MultiStage) AllocCheck(ctx *BranchCtx, cycle int64) (bool, bool) {
	ctx.DeferSeen = true
	if cycle < s.busyDefer {
		// Mid-repair arrival (rare: the fetch-to-alloc distance usually
		// covers the walk): no prediction, state marked invalid.
		ctx.DeferSkip = true
		s.bhtDefer.Invalidate(ctx.PC)
		s.st.CkptMisses++
		return false, false
	}
	pred := s.bhtDefer.Predict(ctx.PC)
	st, had := s.bhtDefer.LookupState(ctx.PC)
	ctx.DeferPre, ctx.DeferHad = st, had

	// An early resteer pays a real front-end penalty, so the deferred
	// override fires only at maximum confidence (paper §3.2: "requires
	// CBPw-Loop's prediction to be even more accurate").
	override := pred.Valid && pred.Taken != ctx.PredTaken && !ctx.WrongPath &&
		ctx.OverrideAllowed && s.bhtDefer.PT().Info(ctx.PC).Conf >= 7
	dir := ctx.PredTaken
	if override {
		dir = pred.Taken
		ctx.UsedLoop = true
		ctx.LoopValid, ctx.LoopTaken = true, pred.Taken
		s.st.EarlyResteers++
	} else if pred.Valid {
		ctx.LoopValid, ctx.LoopTaken = true, pred.Taken
	}

	allocated := s.bhtDefer.SpecUpdate(ctx.PC, dir)
	if ctx.DeferHad || allocated {
		if allocated {
			if pt := s.bhtDefer.PT().Info(ctx.PC); pt.Valid {
				ctx.DeferPre.Dir = pt.Dir
			}
		}
		ctx.DeferOBQID = s.q.AllocAt(ctx.PC, ctx.Seq, ctx.DeferPre, cycle)
		if ctx.DeferOBQID < 0 {
			s.st.CkptMisses++
		}
	}
	return override, dir
}

// OnMispredict implements Scheme: forward walk into BHT-Defer, then copy the
// repaired entries into BHT-TAGE through the prediction ports.
func (s *MultiStage) OnMispredict(ctx *BranchCtx, cycle int64) {
	if ctx.UsedLoop {
		s.bhtDefer.PT().Penalize(ctx.PC)
		if !s.sharedPT {
			s.bhtTage.PT().Penalize(ctx.PC)
		}
	}
	if cycle < s.busyDefer {
		s.st.Restarts++
	}
	if ctx.DeferOBQID < 0 {
		s.q.SquashYoungerSeq(ctx.Seq)
		s.st.Unrepaired++
		return
	}
	s.bhtDefer.RepairStart()
	s.repaired = s.repaired[:0]
	reads, writes := 0, 0
	s.q.Walk(ctx.DeferOBQID, func(id int64, e *obq.Entry) {
		reads++
		if !s.bhtDefer.RepairBitSet(e.PC) {
			return
		}
		s.bhtDefer.RestoreState(e.PC, e.State)
		s.repaired = append(s.repaired, PCState{PC: e.PC, St: e.State})
		writes++
	})
	s.bhtDefer.ApplyOutcome(ctx.PC, ctx.ActualTaken)
	s.q.SquashAfter(ctx.DeferOBQID)

	// Stage 1: BHT-Defer repair through its own (prediction) ports.
	deferCycles := Ports{CkptRead: s.predictPorts, BHTWrite: s.predictPorts}.cycles(reads, writes)
	s.accountBusy(&s.busyDefer, cycle, deferCycles)

	// Stage 2: BHT-TAGE repaired from BHT-Defer's repaired entries; the
	// copy reuses the prediction ports, so BHT-TAGE just stops predicting.
	copies := 0
	for _, ps := range s.repaired {
		st := ps.St
		if ps.PC == ctx.PC {
			if cur, ok := s.bhtDefer.LookupState(ctx.PC); ok {
				st = cur // include the applied outcome
			}
		}
		s.bhtTage.RestoreState(ps.PC, st)
		copies++
	}
	tageCycles := Ports{CkptRead: s.predictPorts, BHTWrite: s.predictPorts}.cycles(copies, copies)
	s.accountBusy(&s.busyTage, cycle+deferCycles, tageCycles)

	s.st.Repairs++
	s.st.RepairReads += uint64(reads)
	s.st.RepairWrites += uint64(writes + copies)
	if s.durHist != nil {
		s.durHist.Observe(deferCycles + tageCycles)
	}
	if s.tr != nil {
		s.tr.Emit(obs.EvRepair, cycle, ctx.PC, deferCycles+tageCycles)
	}
}

func (s *MultiStage) accountBusy(until *int64, cycle, dur int64) {
	end := cycle + dur
	start := cycle
	if *until > start {
		start = *until
	}
	if end > start {
		s.st.BusyCycles += uint64(end - start)
	}
	if end > *until {
		*until = end
	}
}

// OnCorrectResolve implements Scheme.
func (s *MultiStage) OnCorrectResolve(*BranchCtx, int64) {}

// OnRetire implements Scheme: train the PT(s) with the architectural
// outcome; with a shared PT one update suffices.
func (s *MultiStage) OnRetire(ctx *BranchCtx, finalMisp bool) {
	if ctx.DeferOBQID >= 0 {
		s.q.Release(ctx.DeferOBQID)
	}
	s.bhtDefer.Retire(ctx.PC, ctx.ActualTaken, finalMisp)
	if s.sharedPT {
		s.bhtTage.RetireSync(ctx.PC, ctx.ActualTaken, finalMisp)
	} else {
		s.bhtTage.Retire(ctx.PC, ctx.ActualTaken, finalMisp)
	}
}

// OnSquash implements Scheme.
func (s *MultiStage) OnSquash(ctx *BranchCtx) {
	if ctx.DeferOBQID >= 0 {
		s.q.Release(ctx.DeferOBQID)
	}
}

// Stats implements Scheme.
func (s *MultiStage) Stats() *Stats { return &s.st }

// StorageBits implements Scheme.
func (s *MultiStage) StorageBits() int {
	bits := s.bhtTage.BHTStorageBits() + s.bhtDefer.BHTStorageBits()
	bits += s.bhtTage.PT().StorageBits()
	if !s.sharedPT {
		bits += s.bhtDefer.PT().StorageBits()
	}
	bits += s.q.Cap()*76 + 224*16
	return bits
}
