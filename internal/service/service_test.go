package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"localbp/internal/core"
	"localbp/internal/harness"
)

// TestRetryDelayDeterministic: the jitter is a pure function of
// (seed, key, attempt), bounded by [base/2, base) scaled into the
// exponential schedule and capped at MaxDelay.
func TestRetryDelayDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Seed: 1}
	for attempt := 1; attempt <= 6; attempt++ {
		a := p.Delay("spec\x00workload", attempt)
		b := p.Delay("spec\x00workload", attempt)
		if a != b {
			t.Fatalf("attempt %d: delay not deterministic: %v then %v", attempt, a, b)
		}
		step := min(p.BaseDelay<<(attempt-1), p.MaxDelay)
		if a < step/2 || a >= step {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, a, step/2, step)
		}
	}
	if d := p.Delay("other-key", 1); d == p.Delay("spec\x00workload", 1) {
		t.Log("distinct keys drew the same jitter (possible but unlikely)")
	}
	if p.Delay("k", 0) != 0 {
		t.Fatal("attempt 0 should have no delay")
	}
	if (RetryPolicy{}).Delay("k", 3) != 0 {
		t.Fatal("zero policy should have no delay")
	}
}

// TestDoRetriesTransient: transient failures consume the attempt budget;
// permanent failures return on the first attempt; success stops retrying.
func TestDoRetriesTransient(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3} // no delays: BaseDelay 0
	ctx := context.Background()

	calls := 0
	attempts, err := p.Do(ctx, "recovers", func(context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("wrapped: %w", core.ErrStalled)
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("recovering transient: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	calls = 0
	attempts, err = p.Do(ctx, "exhausts", func(context.Context) error {
		calls++
		return fmt.Errorf("wrapped: %w", core.ErrStalled)
	})
	if err == nil || attempts != 3 || calls != 3 {
		t.Fatalf("exhausting transient: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	calls = 0
	permanent := errors.New("bad configuration")
	attempts, err = p.Do(ctx, "permanent", func(context.Context) error {
		calls++
		return permanent
	})
	if !errors.Is(err, permanent) || attempts != 1 || calls != 1 {
		t.Fatalf("permanent: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	attempts, err = p.Do(canceled, "canceled", func(context.Context) error {
		t.Fatal("f ran under a pre-canceled context")
		return nil
	})
	if err == nil || attempts != 0 {
		t.Fatalf("pre-canceled: attempts=%d err=%v", attempts, err)
	}
}

// TestRunSweepUnknownID: id validation is complete and fails before any
// simulation.
func TestRunSweepUnknownID(t *testing.T) {
	_, err := RunSweep(context.Background(), SweepConfig{
		Opts: harness.Options{Insts: 5_000, Quick: true},
		IDs:  []string{"table1", "nope", "fig99"},
	})
	if err == nil || !strings.Contains(err.Error(), "nope") || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("unknown ids not reported completely: %v", err)
	}
}

// TestRunSweepCheckpointReplay: a second run with the same checkpoint
// replays the stored output verbatim and reports it as replayed.
func TestRunSweepCheckpointReplay(t *testing.T) {
	ckpt := t.TempDir() + "/sweep.ckpt"
	cfg := SweepConfig{
		Opts:       harness.Options{Insts: 5_000, Quick: true},
		IDs:        []string{"table1", "table2"},
		Checkpoint: ckpt,
	}
	var first bytes.Buffer
	cfg.Out = &first
	rep, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.Replayed != 0 || rep.Status() != SweepOK {
		t.Fatalf("first run: %+v status=%v", rep, rep.Status())
	}

	var second bytes.Buffer
	cfg.Out = &second
	rep, err = RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 0 || rep.Replayed != 2 || rep.Status() != SweepOK {
		t.Fatalf("resumed run: %+v status=%v", rep, rep.Status())
	}
	if first.String() != second.String() {
		t.Fatalf("replayed output differs:\n--- first\n%s\n--- second\n%s", first.String(), second.String())
	}

	// Mismatched options must refuse the checkpoint, not silently mix results.
	bad := cfg
	bad.Opts.Insts = 9_999
	if _, err := RunSweep(context.Background(), bad); err == nil {
		t.Fatal("option-mismatched checkpoint accepted")
	}
}

// TestRunSweepInterrupted: a pre-canceled context yields SweepInterrupted
// without running anything.
func TestRunSweepInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunSweep(ctx, SweepConfig{
		Opts: harness.Options{Insts: 5_000, Quick: true},
		IDs:  []string{"table1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted || rep.Status() != SweepInterrupted {
		t.Fatalf("pre-canceled sweep: %+v status=%v", rep, rep.Status())
	}
}

// TestSweepStatusMapping pins the exit-code scheme.
func TestSweepStatusMapping(t *testing.T) {
	cases := []struct {
		rep  SweepReport
		want SweepStatus
	}{
		{SweepReport{Total: 2, Completed: 2}, SweepOK},
		{SweepReport{Total: 2, Completed: 1, Failed: 1}, SweepPartial},
		{SweepReport{Total: 2, Completed: 2, RunFailures: []*harness.RunError{{}}}, SweepPartial},
		{SweepReport{Total: 2, Failed: 2}, SweepAllFailed},
		{SweepReport{Total: 2, Replayed: 1, Failed: 1}, SweepPartial},
		{SweepReport{Total: 2, Completed: 1, Interrupted: true}, SweepInterrupted},
	}
	for i, c := range cases {
		if got := c.rep.Status(); got != c.want {
			t.Fatalf("case %d: status %v, want %v", i, got, c.want)
		}
	}
	if int(SweepInterrupted) != 4 || int(SweepAllFailed) != 3 || int(SweepConfigError) != 2 {
		t.Fatal("exit-code values drifted")
	}
}

// TestReportSummaryClasses: the sweep summary distinguishes permanent from
// retry-exhausted failures.
func TestReportSummaryClasses(t *testing.T) {
	rep := SweepReport{Total: 3, Completed: 3, RunFailures: []*harness.RunError{
		{Class: harness.ClassPermanent},
		{Class: harness.ClassPermanent},
		{Class: harness.ClassExhausted},
	}}
	s := rep.Summary()
	if !strings.Contains(s, "2 permanent") || !strings.Contains(s, "1 retry-exhausted") {
		t.Fatalf("summary does not break down classes: %q", s)
	}
}

// TestAtomicWriteFile: content lands complete, a failed writer leaves no
// target and no temp litter.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/artifact.json"
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back %q, %v", got, err)
	}

	boom := errors.New("writer failed")
	if err := AtomicWriteFile(dir+"/never.json", func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("writer error swallowed: %v", err)
	}
	if _, err := os.Stat(dir + "/never.json"); !os.IsNotExist(err) {
		t.Fatal("failed write left a target file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}
