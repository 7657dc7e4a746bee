package service

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"localbp/internal/audit"
	"localbp/internal/core"
	"localbp/internal/harness"
)

// TestExitCodeTaxonomy pins the documented 0/1/2/3/4 exit-code scheme
// against every layer that feeds it: the ErrorClass taxonomy, representative
// structured errors, and the SweepStatus folding. lbpsweep exits
// int(SweepStatus) and lbpsim exits ExitCodeForError — drift in any of them
// is a breaking change and must fail here first.
func TestExitCodeTaxonomy(t *testing.T) {
	classes := []struct {
		class harness.ErrorClass
		want  int
	}{
		{"", ExitOK},
		{harness.ClassFailed, ExitFailure},
		{harness.ClassCanceled, ExitCanceled},
	}
	for _, tc := range classes {
		if got := ExitCodeForClass(tc.class); got != tc.want {
			t.Errorf("ExitCodeForClass(%q) = %d, want %d", tc.class, got, tc.want)
		}
	}

	errs := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, ExitOK},
		{"context.Canceled", context.Canceled, ExitCanceled},
		{"context.DeadlineExceeded", context.DeadlineExceeded, ExitCanceled},
		{"core.ErrCanceled", fmt.Errorf("run: %w", core.ErrCanceled), ExitCanceled},
		{"core.ErrStalled", fmt.Errorf("run: %w", core.ErrStalled), ExitFailure},
		{"audit.ErrIntegrity", fmt.Errorf("run: %w", audit.ErrIntegrity), ExitFailure},
		{"validation failure", &harness.RunError{Phase: harness.PhaseValidate, Err: errors.New("bad cfg")}, ExitFailure},
		{"canceled before start", &harness.RunError{Phase: harness.PhaseCanceled, Err: context.Canceled}, ExitCanceled},
		{"unclassified", errors.New("mystery"), ExitFailure},
	}
	for _, tc := range errs {
		if got := ExitCodeForError(tc.err); got != tc.want {
			t.Errorf("ExitCodeForError(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}

	// The sweep status values ARE the exit codes: lbpsweep returns
	// int(status) directly.
	statuses := []struct {
		status SweepStatus
		want   int
	}{
		{SweepOK, ExitOK},
		{SweepPartial, ExitFailure},
		{SweepConfigError, ExitConfigError},
		{SweepAllFailed, ExitAllFailed},
		{SweepInterrupted, ExitCanceled},
	}
	for _, tc := range statuses {
		if int(tc.status) != tc.want {
			t.Errorf("int(%s) = %d, want %d", tc.status, int(tc.status), tc.want)
		}
	}
}
