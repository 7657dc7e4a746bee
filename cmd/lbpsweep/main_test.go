package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"localbp/internal/harness"
)

// buildSweep compiles the lbpsweep binary into a temp dir once per test.
func buildSweep(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lbpsweep")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSweepSIGINTResume is the crash-safety acceptance test: a live sweep is
// interrupted with SIGINT mid-run, must exit with the interrupted code (4)
// leaving a valid checkpoint, and a rerun of the same command must resume —
// replaying every completed experiment verbatim, losing none, duplicating
// none — and finish with exit 0.
func TestSweepSIGINTResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bin := buildSweep(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	ids := []string{"table1", "table2", "fig4", "fig7a", "fig8", "fig9"}
	args := append([]string{"-quick", "-insts", "60000", "-workers", "2", "-checkpoint", ckpt}, ids...)

	var out1, err1 strings.Builder
	first := exec.Command(bin, args...)
	first.Stdout, first.Stderr = &out1, &err1
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until at least one experiment has been checkpointed (the static
	// tables complete almost immediately), then interrupt mid-sweep.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			first.Process.Kill()
			t.Fatalf("checkpoint never appeared; stdout:\n%s\nstderr:\n%s", out1.String(), err1.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := first.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	werr := first.Wait()
	code := first.ProcessState.ExitCode()
	if code == 0 {
		// The whole sweep finished before the signal landed; the resume path
		// can't be exercised this round.
		t.Skipf("sweep completed before SIGINT landed (exit 0); stderr:\n%s", err1.String())
	}
	if code != 4 {
		t.Fatalf("interrupted sweep exited %d (%v), want 4\nstdout:\n%s\nstderr:\n%s",
			code, werr, out1.String(), err1.String())
	}
	if !strings.Contains(err1.String(), "interrupted") {
		t.Fatalf("stderr does not report interruption:\n%s", err1.String())
	}

	// The checkpoint left behind must be valid and partial.
	ck, err := harness.LoadCheckpoint(ckpt)
	if err != nil || ck == nil {
		t.Fatalf("post-SIGINT checkpoint unreadable: (%v, %v)", ck, err)
	}
	before := map[string]harness.ExperimentOutcome{}
	for _, id := range ids {
		if o, ok := ck.Done(id); ok {
			before[id] = o
		}
	}
	if len(before) == 0 || len(before) == len(ids) {
		t.Fatalf("checkpoint has %d/%d experiments; want a strict partial", len(before), len(ids))
	}

	// Resume: the same command must replay completed experiments and finish
	// the rest.
	var out2, err2 strings.Builder
	second := exec.Command(bin, args...)
	second.Stdout, second.Stderr = &out2, &err2
	if err := second.Run(); err != nil {
		t.Fatalf("resumed sweep failed (%v)\nstdout:\n%s\nstderr:\n%s", err, out2.String(), err2.String())
	}

	// Zero lost results: every previously completed output replays verbatim.
	for id, o := range before {
		if !strings.Contains(out2.String(), o.Output) {
			t.Fatalf("resumed sweep lost the checkpointed output of %s", id)
		}
	}
	// Zero duplicated results: each experiment's banner appears exactly once.
	for _, id := range ids {
		banner := "== " + id + " "
		if n := strings.Count(out2.String(), banner); n != 1 {
			t.Fatalf("experiment %s ran %d times in the resumed sweep, want 1\nstdout:\n%s",
				id, n, out2.String())
		}
	}

	// The final checkpoint holds every experiment, with the pre-interrupt
	// outcomes untouched.
	ck, err = harness.LoadCheckpoint(ckpt)
	if err != nil || ck == nil {
		t.Fatalf("final checkpoint unreadable: (%v, %v)", ck, err)
	}
	for _, id := range ids {
		o, ok := ck.Done(id)
		if !ok {
			t.Fatalf("experiment %s missing from the final checkpoint", id)
		}
		if prev, was := before[id]; was && prev.Output != o.Output {
			t.Fatalf("resume rewrote the completed output of %s", id)
		}
	}
}

// TestSweepExitCodeConfigError: unknown experiment ids, a checkpoint
// written under other options and out-of-range flag values exit 2 before
// any simulation, and so does every retired flag (retries, chaos injection,
// sharding, the single-run flags that moved to lbpsim, -cpistack/-scheme,
// which experiment ext2 replaced, and the wall-clock -timeout/-deadline),
// so a script still passing one fails loudly instead of running a
// different sweep. Every one is refused before the banner, so stdout stays
// empty.
func TestSweepExitCodeConfigError(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bin := buildSweep(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if out, err := exec.Command(bin, "-quick", "-insts", "4000", "-checkpoint", ckpt, "table1").CombinedOutput(); err != nil {
		t.Fatalf("writing a checkpoint: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"definitely-not-an-experiment"},
		{"table1", "nope-id"},
		{"-checkpoint", ckpt, "table1"},
		{"-retries", "1", "table1"},
		{"-shards", "2", "table1"},
		{"-merge", "table1"},
		{"-inject", "transient", "table1"},
		{"-trace-file", "t.lbp2", "table1"},
		{"-trace-events", "ev.jsonl", "table1"},
		{"-workload", "cloud-compression", "table1"},
		{"-seed", "7", "table1"},
		{"-cpistack", "table1"},
		{"-scheme", "forward-coalesce", "table1"},
		{"-insts", "-1", "fig4"},
		{"-warmup", "-5", "fig8"},
		{"-warmup", "5000", "table3"},
		{"-warmup", "6000", "table3"},
		{"-workers", "-3", "fig8"},
		{"-audit-sample", "-1", "fig8"},
		{"-timeout", "-1s", "fig8"},
		{"-timeout", "30m", "fig8"},
		{"-deadline", "-1s", "fig8"},
		{"-deadline", "2h", "fig8"},
	} {
		cmd := exec.Command(bin, append([]string{"-quick", "-insts", "5000"}, args...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		cmd.Run()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Fatalf("%v exited %d, want 2\n%s%s", args, code, &stdout, &stderr)
		}
		if stdout.Len() > 0 {
			t.Fatalf("%v printed to stdout before refusing:\n%s", args, &stdout)
		}
	}
}
