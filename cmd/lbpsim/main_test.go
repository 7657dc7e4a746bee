package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// buildSim compiles lbpsim into a temp dir and saves a 2,000-instruction
// cloud-compression trace beside it as LBP2; it returns the directory, the
// binary and the trace file.
func buildSim(t *testing.T) (dir, bin, traceFile string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "lbpsim")
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
	return dir, bin, f.Name()
}

// TestSimFlagChecks: an out-of-range -insts or -trace-cap, a configuration
// name outside the grammar and the retired flags (-loop, -tage, the
// wall-clock -timeout and the fault injector's -inject, -inject-seed and
// -inject-every) exit 2 before any run, so stdout stays empty: no workload
// header, no core section. Before these checks, -insts <= 0 on -trace-file
// replayed the whole file (trace.Limit reads n <= 0 as no limit) and a
// negative -trace-cap ran as if unset. Experiment row labels run.
func TestSimFlagChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary")
	}
	dir, bin, file := buildSim(t)
	for _, args := range [][]string{
		{"-trace-file", file, "-insts", "-5"},
		{"-trace-file", file, "-insts", "0"},
		{"-insts", "-5"},
		{"-insts", "0"},
		{"-insts", "1000", "-timeout", "-1s"},
		{"-insts", "1000", "-timeout", "10s"},
		{"-insts", "1000", "-inject", "obq-drop"},
		{"-insts", "1000", "-inject-seed", "7"},
		{"-insts", "1000", "-inject-every", "53"},
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

// TestTraceEventsInstsLabel: on -trace-file replay every -trace-events line
// is labelled with the instructions the run replayed (the whole file, or
// the explicit -insts limit), not with the -insts flag's default.
func TestTraceEventsInstsLabel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary")
	}
	dir, bin, file := buildSim(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "2000"},
		{[]string{"-insts", "1500"}, "1500"},
	} {
		events := filepath.Join(dir, "ev.jsonl")
		args := append([]string{"-trace-file", file, "-trace-events", events}, tc.args...)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("lbpsim %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		f, err := os.Open(events)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
			var ev struct{ Insts string }
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("line %d: %v", lines+1, err)
			}
			if ev.Insts != tc.want {
				t.Fatalf("lbpsim %s: line %d labelled insts=%q, want %q",
					strings.Join(args, " "), lines+1, ev.Insts, tc.want)
			}
		}
		f.Close()
		if lines == 0 {
			t.Fatalf("lbpsim %s wrote no events", strings.Join(args, " "))
		}
	}
}
