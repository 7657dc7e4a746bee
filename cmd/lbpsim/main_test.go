package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// TestSimFlagChecks: an out-of-range -insts, -timeout or -trace-cap, a
// configuration name outside the grammar and the retired -loop and -tage
// flags exit 2 before any run, so stdout stays empty: no workload header,
// no core section. Before these checks, -insts <= 0 on -trace-file replayed
// the whole file (trace.Limit reads n <= 0 as no limit) and a negative
// -timeout or -trace-cap ran as if unset. Experiment row labels run.
func TestSimFlagChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "lbpsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	w, _ := workloads.ByName("cloud-compression")
	f, err := os.Create(filepath.Join(dir, "t.lbp2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTraceLBP2(f, w.Generate(2_000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{"-trace-file", f.Name(), "-insts", "-5"},
		{"-trace-file", f.Name(), "-insts", "0"},
		{"-insts", "-5"},
		{"-insts", "0"},
		{"-insts", "1000", "-timeout", "-1s"},
		{"-insts", "1000", "-trace-cap", "-1"},
		{"-insts", "1000", "-trace-cap", "0", "-trace-events", filepath.Join(dir, "ev.jsonl")},
		{"-insts", "1000", "-scheme", "nope"},
		{"-insts", "1000", "-scheme", "forward-walk"},
		{"-insts", "1000", "-scheme", "limited-0pc"},
		{"-insts", "1000", "-scheme", "forward-0-4-2"},
		{"-insts", "1000", "-scheme", "snapshot-4096-8-8"},
		{"-insts", "1000", "-scheme", "forward", "-loop", "64"},
		{"-insts", "1000", "-scheme", "forward", "-tage", "57"},
	} {
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		cmd.Run()
		if code := cmd.ProcessState.ExitCode(); code != 2 || stdout.Len() != 0 {
			t.Errorf("lbpsim %s: exit %d, want 2 before any run\nstdout:\n%sstderr:\n%s",
				strings.Join(args, " "), code, stdout.String(), stderr.String())
		}
	}
	for _, name := range []string{"forward-64-8-4", "limited-4pc-invalidate", "yehpatt-perfect"} {
		if out, err := exec.Command(bin, "-insts", "20000", "-scheme", name).CombinedOutput(); err != nil {
			t.Errorf("lbpsim -scheme %s: %v\n%s", name, err, out)
		}
	}
}
