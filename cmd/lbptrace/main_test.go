package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"localbp/internal/trace"
)

// buildBinary compiles the main package pkg into a temp dir and returns the
// binary path.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// runCmd executes bin with args and returns combined output, failing the test
// on a non-zero exit.
func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// afterFirstLine strips a CLI report's header line (the only line that names
// the input file or workload) so replay outputs can be compared byte-exactly.
func afterFirstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// TestTraceSmoke is the end-to-end trace-pipeline check (< 30 s) behind
// `make trace-smoke`: build the real lbptrace and lbpsim binaries, generate
// an LBP2 trace, re-encode it with -convert (LBP2 -> LBP2 must be
// byte-identical), check it is at least 2x smaller than raw records, and
// replay it through lbpsim bit-exactly against in-process generation. The
// retired -format flag must fail as a usage error (exit 2).
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds real binaries")
	}
	lbptrace := buildBinary(t, "localbp/cmd/lbptrace")
	lbpsim := buildBinary(t, "localbp/cmd/lbpsim")
	dir := t.TempDir()
	lbp2 := filepath.Join(dir, "a.lbp2")
	lbp2rt := filepath.Join(dir, "b.lbp2")

	const workload = "cloud-compression"
	const n = 150_000
	insts := strconv.Itoa(n)
	runCmd(t, lbptrace, "-gen", "-workload", workload, "-insts", insts, "-out", lbp2)
	runCmd(t, lbptrace, "-convert", lbp2, "-out", lbp2rt)

	a, err := os.ReadFile(lbp2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(lbp2rt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("LBP2 -> LBP2 -convert round trip is not byte-identical (%d vs %d bytes)", len(a), len(b))
	}
	if raw := int64(trace.RawRecordBytes) * n; int64(len(a))*2 > raw {
		t.Fatalf("LBP2 trace is %d bytes vs %d raw; want at least 2x smaller", len(a), raw)
	}

	// Replay the file and the in-process generation; everything below the
	// header line must agree byte-exactly.
	gen := afterFirstLine(runCmd(t, lbpsim, "-workload", workload, "-insts", insts, "-scheme", "forward-coalesce"))
	rep := afterFirstLine(runCmd(t, lbpsim, "-trace-file", lbp2, "-scheme", "forward-coalesce"))
	if rep != gen {
		t.Fatalf("LBP2 replay diverges from in-process generation:\n--- replay\n%s--- generation\n%s", rep, gen)
	}

	// -stat streams the file and reports the container layout.
	if st := runCmd(t, lbptrace, "-stat", lbp2); !strings.Contains(st, "lbp2: records="+insts) {
		t.Fatalf("-stat lacks the LBP2 layout line:\n%s", st)
	}

	cmd := exec.Command(lbptrace, "-convert", lbp2, "-out", filepath.Join(dir, "c.lbp"), "-format", "lbp1")
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("-format lbp1 exited %d, want 2\n%s", code, out)
	}
}
