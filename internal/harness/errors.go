package harness

import (
	"context"
	"errors"
	"fmt"

	"localbp/internal/core"
)

// Phases of one workload × spec run, recorded in RunError so a failure
// report says where in the pipeline the run died.
const (
	PhaseValidate = "validate" // spec/config validation before any simulation
	PhaseGenerate = "generate" // trace generation / trace validation
	PhaseSimulate = "simulate" // the cycle-level simulation itself
	PhaseCanceled = "canceled" // run never executed: context canceled first
)

// ErrorClass is the one distinction drawn between failed runs: a run cut
// short by cancellation (SIGINT/SIGTERM) is resumable — exit 4, never
// memoized, not counted as a failure — while every other error is a failure
// (exit 1). The simulation is deterministic, so a failed run would fail the
// same way again and is never re-attempted.
type ErrorClass string

const (
	// ClassFailed marks a run that failed: validation, trace generation, a
	// watchdog stall, an integrity trip or a panic. Each is decided by the
	// run's inputs.
	ClassFailed ErrorClass = "failed"
	// ClassCanceled marks a run aborted (or never started) because the
	// sweep's context was canceled or its deadline expired.
	ClassCanceled ErrorClass = "canceled"
)

// isCancellation reports whether err is a context cancellation or deadline,
// directly or through the core's ErrCanceled.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, core.ErrCanceled)
}

// Classify maps an error to its class. A RunError carries the runner's own
// verdict in Class (which alone knows whether the sweep context was live when
// the run stopped); any other error classifies by its chain: cancellation or
// deadline → ClassCanceled, anything else → ClassFailed. A nil error
// classifies as "".
func Classify(err error) ErrorClass {
	if err == nil {
		return ""
	}
	var re *RunError
	if errors.As(err, &re) && re.Class != "" {
		return re.Class
	}
	if isCancellation(err) {
		return ClassCanceled
	}
	return ClassFailed
}

// RunError is the structured failure record for one workload × spec run.
// The parallel runner converts panics (predictor/core bugs), watchdog trips
// (core.ErrStalled), integrity violations and context cancellations into
// RunErrors so one bad run degrades a sweep instead of killing it.
type RunError struct {
	Workload  string // workload name ("" for spec-level validation failures)
	SpecLabel string
	Phase     string     // PhaseValidate, PhaseGenerate, PhaseSimulate or PhaseCanceled
	Err       error      // underlying cause; errors.Is(err, core.ErrStalled) works through it
	Stack     string     // goroutine stack when recovered from a panic, else ""
	Class     ErrorClass // ClassFailed or ClassCanceled, decided by the runner
}

// Error renders the workload, spec, phase and cause on one line; the panic
// stack, if any, follows.
func (e *RunError) Error() string {
	w := e.Workload
	if w == "" {
		w = "(all workloads)"
	}
	msg := fmt.Sprintf("run %s × %s failed in %s: %v", w, e.SpecLabel, e.Phase, e.Err)
	if e.Stack != "" {
		msg += "\n" + e.Stack
	}
	return msg
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *RunError) Unwrap() error { return e.Err }
