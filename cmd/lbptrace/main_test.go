package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
// an LBP2 trace, convert LBP2 -> LBP1 -> LBP2 (the round trip must be
// byte-identical), then replay both formats and the in-process generation
// through lbpsim — all three reports must agree bit-exactly.
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds real binaries")
	}
	lbptrace := buildBinary(t, "localbp/cmd/lbptrace")
	lbpsim := buildBinary(t, "localbp/cmd/lbpsim")
	dir := t.TempDir()
	lbp2 := filepath.Join(dir, "a.lbp2")
	lbp1 := filepath.Join(dir, "a.lbp")
	lbp2rt := filepath.Join(dir, "b.lbp2")

	const workload = "cloud-compression"
	const insts = "150000"
	runCmd(t, lbptrace, "-gen", "-workload", workload, "-insts", insts, "-out", lbp2)
	runCmd(t, lbptrace, "-convert", lbp2, "-out", lbp1, "-format", "lbp1")
	runCmd(t, lbptrace, "-convert", lbp1, "-out", lbp2rt, "-format", "lbp2")

	a, err := os.ReadFile(lbp2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(lbp2rt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("LBP2 -> LBP1 -> LBP2 round trip is not byte-identical (%d vs %d bytes)", len(a), len(b))
	}
	fi, err := os.Stat(lbp1)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(a))*2 > fi.Size() {
		t.Fatalf("LBP2 trace is %d bytes vs LBP1's %d; want at least 2x smaller", len(a), fi.Size())
	}

	// Replay both container formats and the in-process generation; everything
	// below the header line must agree byte-exactly.
	gen := afterFirstLine(runCmd(t, lbpsim, "-workload", workload, "-insts", insts, "-scheme", "forward-coalesce"))
	rep2 := afterFirstLine(runCmd(t, lbpsim, "-trace-file", lbp2, "-scheme", "forward-coalesce"))
	rep1 := afterFirstLine(runCmd(t, lbpsim, "-trace-file", lbp1, "-scheme", "forward-coalesce"))
	if rep2 != gen {
		t.Fatalf("LBP2 replay diverges from in-process generation:\n--- replay\n%s--- generation\n%s", rep2, gen)
	}
	if rep1 != rep2 {
		t.Fatalf("LBP1 and LBP2 replays diverge:\n--- lbp1\n%s--- lbp2\n%s", rep1, rep2)
	}

	// -stat must stream-summarize both formats identically (first line).
	st2 := runCmd(t, lbptrace, "-stat", lbp2)
	st1 := runCmd(t, lbptrace, "-stat", lbp1)
	if firstLine(st1) != firstLine(st2) {
		t.Fatalf("-stat summaries diverge:\n%s\n%s", st1, st2)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
