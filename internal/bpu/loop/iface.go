package loop

// LocalPredictor is the surface a local predictor must expose for the repair
// schemes of internal/repair to manage its speculative state. The paper's
// techniques are defined over exactly this contract (§1: "our techniques can
// be directly extended to any local predictor design — the difference is
// only in the state saved and restored"): CBPw-Loop (Predictor) stores an
// iteration counter in State.Count, the generic two-level YehPatt stores a
// direction-history bit pattern in the same field. Both embed the shared
// speculative table bht, which implements the state-opaque half of the
// contract (LookupState, Invalidate, InvalidateAll, the repair bits, the
// undo journal and Entries); each predictor adds the methods that read or
// advance its own state.
type LocalPredictor interface {
	// Predict returns the predictor's (confidence-gated) opinion for pc.
	Predict(pc uint64) Prediction
	// PredictWithOffset predicts with the tracked state advanced by
	// `offset` in-flight instances (update-at-retire integration).
	// Predictors whose state cannot be advanced without knowing the
	// in-flight directions may ignore the offset.
	PredictWithOffset(pc uint64, offset uint16) Prediction

	// LookupState returns pc's current speculative state.
	LookupState(pc uint64) (State, bool)
	// SpecUpdate advances pc's state with the final predicted direction,
	// reporting whether a new entry was allocated.
	SpecUpdate(pc uint64, d bool) (allocated bool)
	// RestoreState writes a checkpointed state back (repair write).
	RestoreState(pc uint64, st State)
	// ApplyOutcome applies a resolved branch outcome to pc's state.
	ApplyOutcome(pc uint64, taken bool)
	// Invalidate marks pc's state untrustworthy without releasing it.
	Invalidate(pc uint64)
	// InvalidateAll marks every tracked state untrustworthy.
	InvalidateAll()

	// Retire trains the non-speculative level with the architectural
	// outcome (and allocates on final mispredictions).
	Retire(pc uint64, taken, finalMispredicted bool)

	// PatternInfo exposes the learned non-speculative pattern for pc
	// (zero value when untracked or when the notion doesn't apply).
	PatternInfo(pc uint64) PTInfo
	// PatternConfident reports whether pc's pattern is override-worthy.
	PatternConfident(pc uint64) bool
	// PenalizeOverride lowers pc's confidence after a wrong override.
	PenalizeOverride(pc uint64)

	// Forward-walk repair bits (paper §3.1).
	RepairStart()
	RepairBitSet(pc uint64) bool

	// Whole-table checkpoints (perfect repair, snapshot queue) as marks
	// in an undo journal of BHT writes. Mark returns the current position
	// and turns journaling on; Rollback undoes every write since a mark
	// and returns how many entries' predictive state it changed;
	// DiffSince counts the same read-only; Release drops the records
	// older than a mark. A released or rolled-past mark panics.
	Mark() int64
	Rollback(m int64) int
	DiffSince(m int64) int
	Release(m int64)

	// Entries returns the speculative-table capacity; the storage methods
	// feed Table 3.
	Entries() int
	StorageBits() int
	BHTStorageBits() int
}

// Compile-time check: both local predictors satisfy the contract.
var (
	_ LocalPredictor = (*Predictor)(nil)
	_ LocalPredictor = (*YehPatt)(nil)
)

// PatternInfo implements LocalPredictor by exposing the PT entry.
func (p *Predictor) PatternInfo(pc uint64) PTInfo { return p.pt.Info(pc) }

// PatternConfident implements LocalPredictor.
func (p *Predictor) PatternConfident(pc uint64) bool { return p.pt.Confident(pc) }

// PenalizeOverride implements LocalPredictor.
func (p *Predictor) PenalizeOverride(pc uint64) { p.pt.Penalize(pc) }
