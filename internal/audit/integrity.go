// Package audit is the simulation integrity layer: a pluggable invariant
// auditor hooked into the core tick/retire loop and the repair schemes, plus
// a golden-model differential oracle (a timing-free in-order executor of the
// same trace cross-checked at retire). Violations surface as structured
// IntegrityError values instead of panics, so a modeling bug aborts one run
// with a diagnosable report rather than killing a sweep.
//
// The auditor is strictly read-only over simulator state: enabling it must
// not perturb a single reported statistic (observer effect = 0). Checks that
// would mutate predictor metadata (LRU touches, statistic counters) are
// therefore expressed over the read-only surfaces LookupState, DiffSince and
// obq.Queue.Walk.
package audit

import (
	"errors"
	"fmt"
)

// ErrIntegrity is the sentinel wrapped by every IntegrityError. Match with
// errors.Is(err, audit.ErrIntegrity).
var ErrIntegrity = errors.New("audit: integrity violation")

// Invariant names reported in IntegrityError.Invariant. Core-loop invariants
// first, then scheme/OBQ invariants, then oracle cross-checks.
const (
	InvRetireMonotonic = "rob-retire-monotonic"   // retired seq must strictly increase
	InvWrongPathHead   = "wrong-path-at-rob-head" // wrong-path entries are flushed before the head
	InvBranchRecord    = "branch-without-record"  // every allocated branch carries a prediction record
	InvROBAgeOrder     = "rob-age-order"          // ROB entries are seq-ordered head→tail
	InvOccupancy       = "occupancy-bounds"       // ROB/alloc-queue occupancy within capacity
	InvResolutions     = "resolution-consistency" // pending resolutions match unresolved ROB branches
	InvCPIAccounting   = "cpi-accounting"         // CPI-stack bucket cycles sum to total cycles
	InvMemTrack        = "mem-track-length"       // a replayed memory track holds one outcome per load/store

	InvOBQOrder      = "obq-order"      // OBQ Seq strictly increasing head→tail
	InvOBQBounds     = "obq-bounds"     // OBQ occupancy within capacity
	InvOBQCoalesce   = "obq-coalesce"   // adjacent live entries never share a PC when coalescing
	InvOBQRuns       = "obq-runs"       // per-entry coalesced-run counts non-negative
	InvCkptLiveness  = "ckpt-liveness"  // a branch's checkpoint entry is live and matches at use
	InvPerfectResync = "perfect-resync" // after a perfect-repair resync, spec BHT == arch BHT
	InvSchemeCtx     = "scheme-ctx"     // per-branch repair context self-consistent

	InvOracleStream = "oracle-stream-skew"     // retired stream positions not sequential
	InvOracleClass  = "oracle-class-mismatch"  // retired class differs from the trace
	InvOracleBranch = "oracle-branch-mismatch" // retired branch PC/outcome differs from the trace
	InvOracleCounts = "oracle-final-counts"    // end-of-run totals differ from the functional model
)

// IntegrityError is one invariant violation: where (cycle, PC), what
// (invariant name) and a state dump for diagnosis. It wraps ErrIntegrity and
// flows through the harness's RunError machinery like any simulation failure.
type IntegrityError struct {
	Cycle     int64  // simulation cycle at which the violation was detected
	PC        uint64 // offending PC (0 when not attributable to one branch)
	Invariant string // one of the Inv* names
	Dump      string // multi-line state dump
}

// Error renders the invariant, location and dump.
func (e *IntegrityError) Error() string {
	return fmt.Sprintf("audit: invariant %q violated at cycle %d (pc=%#x)\n%s",
		e.Invariant, e.Cycle, e.PC, e.Dump)
}

// Unwrap lets errors.Is(err, ErrIntegrity) match.
func (e *IntegrityError) Unwrap() error { return ErrIntegrity }

// Auditor keeps the first invariant violation and counts checks performed.
// The core aborts on that first report; later ones are usually cascade
// damage. One auditor serves one simulation run; it is not safe for
// concurrent use (the core is single-threaded).
type Auditor struct {
	first    *IntegrityError
	checks   uint64
	nextScan int64 // first cycle at which the next structural scan is due
}

// scanStride is the cycle (or fetched-branch) stride of the expensive
// structural scans (full ROB order scan, OBQ walk); cheap O(1) checks run
// on every event. It is frequent enough to catch corruption within one
// misprediction window and cheap enough to keep audited runs well under
// the 2x overhead budget.
const scanStride = 64

// New returns an auditor.
func New() *Auditor { return &Auditor{} }

// ScanDue reports whether the periodic structural scan should run at cycle:
// at the first cycle the caller reaches at or after each scanStride
// boundary. A loop that iterates every cycle scans at 0, 64, 128, ...; one
// that skips idle windows scans at the first live cycle after a boundary it
// skipped, which is exact because a skipped window changes no state a scan
// reads.
func (a *Auditor) ScanDue(cycle int64) bool {
	if cycle < a.nextScan {
		return false
	}
	a.nextScan = (cycle/scanStride + 1) * scanStride
	return true
}

// Note counts n individual invariant checks (telemetry for reports).
func (a *Auditor) Note(n int) { a.checks += uint64(n) }

// Checks returns the number of invariant checks performed.
func (a *Auditor) Checks() uint64 { return a.checks }

// Report records a violation and returns it; only the first is kept.
func (a *Auditor) Report(cycle int64, pc uint64, invariant, dump string) *IntegrityError {
	e := &IntegrityError{Cycle: cycle, PC: pc, Invariant: invariant, Dump: dump}
	if a.first == nil {
		a.first = e
	}
	return e
}

// First returns the earliest recorded violation, or nil.
func (a *Auditor) First() *IntegrityError { return a.first }
