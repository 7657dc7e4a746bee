package service

import "localbp/internal/harness"

// The process exit codes shared by every CLI entry point. lbpsweep and the
// shard coordinator return them via SweepStatus / Report.Status; lbpsim maps
// its single run through ExitCodeForError. The numeric values are API:
// scripts and the coordinator's worker classification depend on them, and
// the table-driven test in exitcode_test.go pins every mapping.
const (
	// ExitOK: every requested unit of work succeeded.
	ExitOK = 0
	// ExitFailure: some work failed (a run, an experiment, a shard) but the
	// invocation itself was well-formed and produced partial output.
	ExitFailure = 1
	// ExitConfigError: the invocation never meaningfully started — bad
	// flags, unknown ids, checkpoint mismatch, lease contention.
	ExitConfigError = 2
	// ExitAllFailed: every attempted unit failed to produce output.
	ExitAllFailed = 3
	// ExitCanceled: the work was cut short by SIGINT/SIGTERM, a -timeout /
	// -deadline expiry, or a lost shard lease; completed work is durable
	// (checkpoints, journals) and the invocation can be resumed.
	ExitCanceled = 4
)

// ExitCodeForClass folds the harness retry taxonomy onto the exit codes:
// cancellation is resumable and distinguished (4); permanent, transient and
// retry-exhausted failures all surface as 1 — the taxonomy's finer grain
// lives in failure summaries and journals, not the exit status.
func ExitCodeForClass(c harness.ErrorClass) int {
	switch c {
	case "":
		return ExitOK
	case harness.ClassCanceled:
		return ExitCanceled
	default: // ClassPermanent, ClassTransient, ClassExhausted
		return ExitFailure
	}
}

// ExitCodeForError classifies err through harness.Classify and maps the
// class to an exit code. A nil error is ExitOK.
func ExitCodeForError(err error) int {
	return ExitCodeForClass(harness.Classify(err))
}
