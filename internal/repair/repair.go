// Package repair implements every BHT repair scheme studied by the paper:
//
//   - Perfect instantaneous repair (the oracle upper bound, §6.1)
//   - No repair (§2.7)
//   - Update-BHT-at-retire (§6.2)
//   - Backward walk-based history-file repair (prior art, §2.6)
//   - Snapshot-queue repair (prior art, §2.6)
//   - Forward walk-based history-file repair, with optional OBQ entry
//     coalescing (contribution 1, §3.1)
//   - Multi-stage prediction with a split BHT, shared or split PT
//     (contribution 2, §3.2)
//   - Limited-PC repair with the utility+recency heuristic
//     (contribution 3, §3.3)
//
// A Scheme wraps the loop predictor(s) and the checkpoint structures, and is
// driven by the pipeline through fetch/alloc/resolve/retire/squash hooks.
// Repair latency is modeled explicitly: walks and snapshot restores consume
// cycles as a function of checkpoint-read and BHT-write ports, and the BHT
// gives no predictions and accepts no speculative updates while a repair is
// in progress (paper §2.5 issues a-d).
package repair

import (
	"localbp/internal/bpu/loop"
	"localbp/internal/obs"
)

// PCState is a (PC, BHT state) pair carried by limited-PC repair.
type PCState struct {
	PC uint64
	St loop.State
}

// BranchCtx is the per-branch bookkeeping record carried through the
// pipeline: the prediction, the pre-update BHT state, and per-scheme
// checkpoint identifiers. The core pools and reuses these.
type BranchCtx struct {
	PC          uint64
	Seq         uint64 // global branch sequence number (program order)
	PredTaken   bool   // final pipeline prediction (may change at alloc stage)
	ActualTaken bool
	WrongPath   bool
	UsedLoop    bool // the local predictor overrode TAGE at fetch
	LoopValid   bool
	LoopTaken   bool

	// Pre-update speculative BHT state of PC (the 11-bit counter the paper
	// carries with each instruction), captured before SpecUpdate.
	PreState  loop.State
	HadState  bool // BHT hit at prediction time
	Allocated bool // SpecUpdate allocated a fresh BHT entry

	CkptSkipped bool      // checkpointing was impossible (BHT busy or queue full)
	OBQID       int64     // history-file entry id, -1 if none
	MarkValid   bool      // Mark holds a whole-BHT checkpoint (perfect repair)
	Mark        int64     // BHT undo-journal mark after the branch's SpecUpdate
	Limited     []PCState // limited-PC carried states

	// OverrideAllowed mirrors the unit's chooser state at the allocation
	// stage: deferred schemes only fire (and count) an early resteer when
	// the chooser currently trusts the local predictor.
	OverrideAllowed bool

	// InflightMark notes that retire-update incremented the per-PC
	// in-flight counter for this branch (so exactly one decrement happens
	// at retire or squash).
	InflightMark bool

	// Multi-stage bookkeeping.
	DeferSeen  bool // the branch reached the alloc stage (BHT-Defer saw it)
	DeferOBQID int64
	DeferPre   loop.State
	DeferHad   bool
	DeferSkip  bool
}

// ResetCtx clears a context for reuse, preserving the Limited slice's
// capacity.
func ResetCtx(c *BranchCtx) {
	*c = BranchCtx{OBQID: -1, DeferOBQID: -1, Limited: c.Limited[:0]}
}

// Ports describes the repair bandwidth of a configuration: the paper's
// "M-N-P" notation is M checkpoint entries, N checkpoint read ports, P BHT
// write ports.
type Ports struct {
	CkptRead int
	BHTWrite int
}

// cycles returns how many cycles a repair of r checkpoint reads and w BHT
// writes takes through these ports.
func (p Ports) cycles(r, w int) int64 {
	c := ceilDiv(r, p.CkptRead)
	if c2 := ceilDiv(w, p.BHTWrite); c2 > c {
		c = c2
	}
	if c < 1 && (r > 0 || w > 0) {
		c = 1
	}
	return int64(c)
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		if a > 0 {
			return 1 << 20 // effectively infinite: no ports provisioned
		}
		return 0
	}
	return (a + b - 1) / b
}

// Stats aggregates repair activity for one simulation.
type Stats struct {
	Repairs       uint64 // mispredictions that triggered a repair
	Unrepaired    uint64 // mispredictions with no usable checkpoint
	RepairReads   uint64 // checkpoint entries read during walks
	RepairWrites  uint64 // BHT entries written during repair
	BusyCycles    uint64 // cycles the BHT was unavailable
	CkptMisses    uint64 // branches not checkpointed (queue full / busy)
	Restarts      uint64 // repairs restarted by an older misprediction
	EarlyResteers uint64 // multi-stage deferred overrides
	NeededSum     uint64 // sum over mispredictions of entries needing repair
	NeededMax     int    // max entries needing repair at one misprediction
	NeededSamples uint64
}

// EmitCounters reports every Stats field through emit, for registration as
// an obs.Registry pull source (names are stable snapshot keys).
func (s *Stats) EmitCounters(emit func(name string, v uint64)) {
	emit("repairs", s.Repairs)
	emit("unrepaired", s.Unrepaired)
	emit("reads", s.RepairReads)
	emit("writes", s.RepairWrites)
	emit("busy-cycles", s.BusyCycles)
	emit("ckpt-misses", s.CkptMisses)
	emit("restarts", s.Restarts)
	emit("early-resteers", s.EarlyResteers)
}

// BusyReporter is the optional interface schemes implement to expose the
// cycle until which their BHT/checkpoint ports are busy. The core uses it
// for CPI-stack repair-busy attribution; the audit wrapper forwards it.
type BusyReporter interface {
	BusyUntil() int64
}

// ObsAttacher is the optional interface schemes implement to register their
// counters into an obs.Registry and emit repair trace events. Call AttachObs
// on the raw scheme before decorator wrapping.
type ObsAttacher interface {
	AttachObs(reg *obs.Registry, tr *obs.Tracer)
}

// AttachObs wires observability into s when it supports it (no-op
// otherwise). It must be invoked on the unwrapped scheme: the audit wrapper
// does not forward registration.
func AttachObs(s Scheme, reg *obs.Registry, tr *obs.Tracer) {
	if a, ok := s.(ObsAttacher); ok {
		a.AttachObs(reg, tr)
	}
}

// Scheme is one complete local-predictor integration: predictor structures
// plus a repair mechanism, driven by the pipeline.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string

	// FetchPredict returns the local prediction available at the branch
	// prediction stage (zero value when the BHT is busy or has no
	// confident opinion).
	FetchPredict(pc uint64, cycle int64) loop.Prediction

	// OnFetchBranch is invoked for every fetched conditional branch
	// (including synthesized wrong-path branches) after the final
	// direction has been chosen into ctx.PredTaken. The scheme performs
	// its speculative BHT update and checkpointing here.
	OnFetchBranch(ctx *BranchCtx, cycle int64)

	// AllocCheck is invoked when the branch reaches the allocation stage.
	// Deferred schemes may return (true, dir) to request an early resteer
	// to direction dir (paper §3.2).
	AllocCheck(ctx *BranchCtx, cycle int64) (resteer bool, dir bool)

	// OnMispredict repairs the BHT after ctx resolved mispredicted.
	OnMispredict(ctx *BranchCtx, cycle int64)

	// OnCorrectResolve is invoked when ctx resolved correctly predicted.
	OnCorrectResolve(ctx *BranchCtx, cycle int64)

	// OnRetire trains the non-speculative predictor state and releases
	// checkpoint resources. finalMisp reports whether the pipeline's
	// final prediction for the branch was wrong.
	OnRetire(ctx *BranchCtx, finalMisp bool)

	// OnSquash releases the resources of a flushed branch.
	OnSquash(ctx *BranchCtx)

	// Stats exposes repair counters.
	Stats() *Stats

	// StorageBits returns the storage of the local predictor plus all
	// repair structures (for Table 3).
	StorageBits() int
}
