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
// therefore expressed over the read-only surfaces LookupState, DiffBHT and
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
	InvRetireMonotonic  = "rob-retire-monotonic"   // retired seq must strictly increase
	InvWrongPathHead    = "wrong-path-at-rob-head" // wrong-path entries are flushed before the head
	InvBranchRecord     = "branch-without-record"  // every allocated branch carries a prediction record
	InvRetireIncomplete = "retire-incomplete"      // retired entry completed in the future
	InvROBAgeOrder      = "rob-age-order"          // ROB entries are seq-ordered head→tail
	InvOccupancy        = "occupancy-bounds"       // ROB/alloc-queue occupancy within capacity
	InvResolutions      = "resolution-consistency" // pending resolutions match unresolved ROB branches
	InvCPIAccounting    = "cpi-accounting"         // CPI-stack bucket cycles sum to total cycles

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

// maxViolations bounds the per-run violation list: the first violation is
// what matters (later ones are usually cascade damage), but keeping a few
// helps diagnose multi-site corruption from fault injection.
const maxViolations = 16

// Auditor collects invariant violations and counts checks performed. One
// auditor serves one simulation run; it is not safe for concurrent use (the
// core is single-threaded).
type Auditor struct {
	// Interval is the cycle stride of the expensive structural scans (full
	// ROB order scan, OBQ walk). Cheap O(1) checks run on every event.
	// Zero selects DefaultInterval.
	Interval int64

	violations []*IntegrityError
	dropped    uint64
	checks     uint64
}

// DefaultInterval is the structural-scan stride when Auditor.Interval is
// zero: frequent enough to catch corruption within one misprediction window,
// cheap enough to keep audited runs well under the 2x overhead budget.
const DefaultInterval = 64

// New returns an auditor with the default scan interval.
func New() *Auditor { return &Auditor{} }

// interval resolves the structural-scan stride.
func (a *Auditor) interval() int64 {
	if a.Interval > 0 {
		return a.Interval
	}
	return DefaultInterval
}

// ScanDue reports whether the periodic structural scan should run at cycle.
func (a *Auditor) ScanDue(cycle int64) bool { return cycle%a.interval() == 0 }

// Note counts n individual invariant checks (telemetry for reports).
func (a *Auditor) Note(n int) { a.checks += uint64(n) }

// Checks returns the number of invariant checks performed.
func (a *Auditor) Checks() uint64 { return a.checks }

// Report records a violation and returns it. Beyond maxViolations the
// violation is counted but not retained.
func (a *Auditor) Report(cycle int64, pc uint64, invariant, dump string) *IntegrityError {
	e := &IntegrityError{Cycle: cycle, PC: pc, Invariant: invariant, Dump: dump}
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, e)
	} else {
		a.dropped++
	}
	return e
}

// First returns the earliest recorded violation, or nil.
func (a *Auditor) First() *IntegrityError {
	if len(a.violations) == 0 {
		return nil
	}
	return a.violations[0]
}

// Violations returns every retained violation in detection order.
func (a *Auditor) Violations() []*IntegrityError {
	out := make([]*IntegrityError, len(a.violations))
	copy(out, a.violations)
	return out
}

// Dropped returns how many violations were detected beyond the retained cap.
func (a *Auditor) Dropped() uint64 { return a.dropped }
