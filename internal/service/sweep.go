// Package service is the cancellation-aware orchestration core: it lifts
// sweep execution, checkpoint lifecycle and graceful shutdown out of the CLI
// mains so every entry point (lbpsweep, tests) shares one implementation.
// Everything here is context-first: cancellation propagates through the
// harness into the cycle loop within one check stride.
package service

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"localbp/internal/harness"
)

// SweepStatus is the terminal state of a sweep, ordered by severity so that
// int(status) is directly usable as a process exit code.
type SweepStatus int

const (
	// SweepOK: every selected experiment produced output, no run failures.
	SweepOK SweepStatus = 0
	// SweepPartial: at least one experiment produced output but some
	// experiments or workload runs failed.
	SweepPartial SweepStatus = 1
	// SweepConfigError: the sweep never started (unknown ids, checkpoint
	// mismatch, ...). NewSweep signals this by returning an error.
	SweepConfigError SweepStatus = 2
	// SweepAllFailed: every attempted experiment failed to produce output.
	SweepAllFailed SweepStatus = 3
	// SweepInterrupted: the context was canceled mid-sweep; completed
	// experiments are checkpointed, the rest remain pending.
	SweepInterrupted SweepStatus = 4
)

// String names the status for logs and summaries.
func (s SweepStatus) String() string {
	switch s {
	case SweepOK:
		return "ok"
	case SweepPartial:
		return "partial"
	case SweepConfigError:
		return "config-error"
	case SweepAllFailed:
		return "all-failed"
	case SweepInterrupted:
		return "interrupted"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// SweepConfig parameterizes a sweep. Zero-value writers discard.
type SweepConfig struct {
	// Opts configures the underlying harness (instruction budget, worker
	// count, per-run timeout, ...).
	Opts harness.Options
	// IDs selects experiments; empty means all, in paper order.
	IDs []string
	// Checkpoint, when non-empty, enables checkpoint/resume via this path.
	Checkpoint string
	// Out receives experiment outputs; Errs receives warnings and failure
	// summaries; Log, when non-nil, receives per-configuration progress.
	Out  io.Writer
	Errs io.Writer
	Log  io.Writer
}

// SweepReport is the outcome of one Sweep.Run.
type SweepReport struct {
	Total       int                 // experiments selected
	Completed   int                 // experiments that produced output this run
	Replayed    int                 // experiments replayed from the checkpoint
	Failed      int                 // experiments whose aggregation failed outright
	RunFailures []*harness.RunError // workload-run failures (graceful degradation)
	Interrupted bool                // context canceled mid-sweep
	Note        string              // checkpoint recovery note, "" if none
}

// Status folds the report into the exit-code scheme.
func (r *SweepReport) Status() SweepStatus {
	switch {
	case r.Interrupted:
		return SweepInterrupted
	case r.Failed > 0 && r.Completed == 0 && r.Replayed == 0:
		return SweepAllFailed
	case r.Failed > 0 || len(r.RunFailures) > 0:
		return SweepPartial
	}
	return SweepOK
}

// Summary renders the one-line sweep outcome, e.g.
// "14/15 experiments ok (1 replayed from checkpoint), 1 failed; 3 workload
// run(s) failed".
func (r *SweepReport) Summary() string {
	ok := r.Completed + r.Replayed
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d experiments ok", ok, r.Total)
	if r.Replayed > 0 {
		fmt.Fprintf(&b, " (%d replayed from checkpoint)", r.Replayed)
	}
	if r.Failed > 0 {
		fmt.Fprintf(&b, ", %d failed", r.Failed)
	}
	if pending := r.Total - ok - r.Failed; pending > 0 && r.Interrupted {
		fmt.Fprintf(&b, ", %d pending (interrupted)", pending)
	}
	if n := len(r.RunFailures); n > 0 {
		fmt.Fprintf(&b, "; %d workload run(s) failed", n)
	}
	return b.String()
}

// Sweep is a sweep whose configuration has been checked: its options, its
// experiment ids and its checkpoint. Run executes it.
type Sweep struct {
	cfg SweepConfig
	ids []string
	ck  *harness.Checkpoint // nil without SweepConfig.Checkpoint
}

// NewSweep checks everything about a sweep that can fail before any
// experiment runs — invalid options, unknown ids, an unreadable or
// mismatched checkpoint — and prints nothing, so a caller can refuse a bad
// configuration before its own output starts. Its error is
// SweepConfigError territory.
func NewSweep(cfg SweepConfig) (*Sweep, error) {
	if err := cfg.Opts.Validate(); err != nil {
		return nil, err
	}
	ids := cfg.IDs
	if len(ids) == 0 {
		for _, e := range harness.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	// Validate every experiment id before running anything: a typo must
	// surface immediately and completely, not hours into a sweep.
	var unknown []string
	for _, id := range ids {
		if _, ok := harness.ExperimentByID(id); !ok {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment ids: %s (use -list)", strings.Join(unknown, ", "))
	}

	s := &Sweep{cfg: cfg, ids: ids}
	if cfg.Checkpoint != "" {
		ck, err := harness.LoadCheckpoint(cfg.Checkpoint)
		if err != nil {
			return nil, err
		}
		if ck == nil {
			ck = harness.NewCheckpoint(cfg.Opts)
		} else if !ck.Matches(cfg.Opts) {
			return nil, fmt.Errorf(
				"checkpoint %s was written with -insts %d -warmup %d -quick %v; rerun with those flags or delete it",
				cfg.Checkpoint, ck.Insts, ck.Warmup, ck.Quick)
		}
		s.ck = ck
	}
	return s, nil
}

// Run executes the selected experiments with checkpoint/resume and
// graceful cancellation. A non-nil error means a checkpoint flush failed
// (SweepConfigError territory); everything else — including run failures
// and interruption — is reported through the SweepReport.
func (s *Sweep) Run(ctx context.Context) (*SweepReport, error) {
	cfg, ids, ck := s.cfg, s.ids, s.ck
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	errs := cfg.Errs
	if errs == nil {
		errs = io.Discard
	}
	rep := &SweepReport{Total: len(ids)}
	if ck != nil && ck.Note != "" {
		rep.Note = ck.Note
		fmt.Fprintf(errs, "sweep: %s\n", ck.Note)
	}

	r := harness.NewRunner(cfg.Opts)
	r.Log = cfg.Log

	reported := 0 // failures already attributed to earlier experiments
	for _, id := range ids {
		e, _ := harness.ExperimentByID(id)
		if ck != nil {
			if done, ok := ck.Done(id); ok {
				fmt.Fprintf(out, "== %s — %s (%.1fs)\n%s\n", e.ID, e.Title, done.Seconds, done.Output)
				rep.Replayed++
				continue
			}
		}
		if ctx.Err() != nil {
			rep.Interrupted = true
			break
		}
		t0 := time.Now()
		text, err := e.Run(ctx, r)
		secs := time.Since(t0).Seconds()
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation surfaces as an aggregation error (workload
				// runs were cut short); it is interruption, not failure.
				rep.Interrupted = true
				fmt.Fprintf(errs, "sweep: interrupted during %s\n", e.ID)
				break
			}
			// Aggregation failed (for example mismatched result sets after a
			// partial sweep): skip this artifact, keep the sweep going.
			fmt.Fprintf(errs, "sweep: %s failed: %v\n", e.ID, err)
			rep.Failed++
			continue
		}

		// Graceful degradation: failures recorded during this experiment
		// (its own fresh specs; memoized specs reported where first run)
		// are appended to the experiment's output so they persist through
		// checkpoints and resumes.
		failures := r.Failures()
		if fresh := failures[reported:]; len(fresh) > 0 {
			var b strings.Builder
			fmt.Fprintf(&b, "!! %d workload run(s) failed; aggregates above cover the remaining runs:\n", len(fresh))
			for _, f := range fresh {
				fmt.Fprintf(&b, "!!   %s × %s [%s]: %s\n", f.Workload, f.SpecLabel, f.Phase, firstLine(f.Err.Error()))
			}
			text += "\n" + b.String()
			rep.RunFailures = append(rep.RunFailures, fresh...)
			reported = len(failures)
		}

		fmt.Fprintf(out, "== %s — %s (%.1fs)\n%s\n", e.ID, e.Title, secs, text)
		rep.Completed++

		if ck != nil {
			ck.Record(id, harness.ExperimentOutcome{Output: text, Seconds: secs})
			if err := ck.Save(cfg.Checkpoint); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// firstLine truncates multi-line error text (stall dumps, panic stacks) for
// failure summaries; full detail is available via the runner's progress log.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}
