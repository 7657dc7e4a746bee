package service

import "localbp/internal/harness"

// The process exit codes shared by every CLI entry point. lbpsweep returns
// them via SweepStatus; lbpsim maps its single run through
// ExitCodeForError. The numeric values are API: scripts depend on them, and
// the table-driven test in exitcode_test.go pins every mapping.
const (
	// ExitOK: every requested unit of work succeeded.
	ExitOK = 0
	// ExitFailure: some work failed (a run, an experiment) but the
	// invocation itself was well-formed and produced partial output.
	ExitFailure = 1
	// ExitConfigError: the invocation never meaningfully started — bad
	// flags, unknown ids, checkpoint mismatch.
	ExitConfigError = 2
	// ExitAllFailed: every attempted unit failed to produce output.
	ExitAllFailed = 3
	// ExitCanceled: the work was cut short by SIGINT/SIGTERM or a -deadline
	// expiry; completed work is durable (checkpoints) and the invocation can
	// be resumed.
	ExitCanceled = 4
)

// ExitCodeForClass folds the harness error classes onto the exit codes:
// cancellation is resumable and distinguished (4); a failure is 1.
func ExitCodeForClass(c harness.ErrorClass) int {
	switch c {
	case "":
		return ExitOK
	case harness.ClassCanceled:
		return ExitCanceled
	default: // harness.ClassFailed
		return ExitFailure
	}
}

// ExitCodeForError classifies err through harness.Classify and maps the
// class to an exit code. A nil error is ExitOK.
func ExitCodeForError(err error) int {
	return ExitCodeForClass(harness.Classify(err))
}
