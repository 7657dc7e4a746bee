package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"localbp/internal/harness"
)

// runSweep checks cfg and runs it under ctx.
func runSweep(ctx context.Context, cfg SweepConfig) (*SweepReport, error) {
	s, err := NewSweep(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}

// TestRunSweepUnknownID: id validation is complete and fails before any
// simulation.
func TestRunSweepUnknownID(t *testing.T) {
	_, err := NewSweep(SweepConfig{
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
	rep, err := runSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.Replayed != 0 || rep.Status() != SweepOK {
		t.Fatalf("first run: %+v status=%v", rep, rep.Status())
	}

	var second bytes.Buffer
	cfg.Out = &second
	rep, err = runSweep(context.Background(), cfg)
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
	if _, err := NewSweep(bad); err == nil {
		t.Fatal("option-mismatched checkpoint accepted")
	}
}

// TestRunSweepInterrupted: a pre-canceled context yields SweepInterrupted
// without running anything.
func TestRunSweepInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := runSweep(ctx, SweepConfig{
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

// TestReportSummaryClasses: the sweep summary counts failed workload runs
// on top of the experiment tally, without a class breakdown — a failed run
// is simply a failure.
func TestReportSummaryClasses(t *testing.T) {
	rep := SweepReport{Total: 3, Completed: 3, RunFailures: []*harness.RunError{
		{Class: harness.ClassFailed},
		{Class: harness.ClassFailed},
		{Class: harness.ClassFailed},
	}}
	if got, want := rep.Summary(), "3/3 experiments ok; 3 workload run(s) failed"; got != want {
		t.Fatalf("summary %q, want %q", got, want)
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
