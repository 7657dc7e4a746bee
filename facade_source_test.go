package localbp

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"localbp/internal/trace"
)

// writeLBP2File persists tr at dir/name in the LBP2 format and returns the
// path.
func writeLBP2File(t *testing.T, dir, name string, tr []trace.Inst) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTraceLBP2(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFromSourceMatchesSimulate pins the entry points against each other:
// generation, an in-memory source and a file replay must all produce
// identical results.
func TestFromSourceMatchesSimulate(t *testing.T) {
	w := QuickWorkloads()[0]
	const insts = 40_000
	want, err := Simulate(w, insts, ForwardWalk())
	if err != nil {
		t.Fatal(err)
	}

	tr := w.Generate(insts)
	fromSrc, err := FromSource(trace.NewSliceSource(tr), ForwardWalk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, fromSrc) {
		t.Fatalf("FromSource diverges from Simulate\n  src: %+v\n  sim: %+v", fromSrc, want)
	}

	path := writeLBP2File(t, t.TempDir(), "w.lbp2", tr)
	replay, err := Simulate(w, 0, ForwardWalk(), WithTraceFile(path))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, replay) {
		t.Fatalf("file replay diverges\n  file: %+v\n  sim:  %+v", replay, want)
	}

	src, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseTrace(src)
	streamed, err := FromSource(src, ForwardWalk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, streamed) {
		t.Fatalf("OpenTrace replay diverges\n  file: %+v\n  sim:  %+v", streamed, want)
	}
}

// TestFromSourceOptionValidation pins the error paths of the new surface.
func TestFromSourceOptionValidation(t *testing.T) {
	if _, err := FromSource(nil, BaselineTAGE()); err == nil {
		t.Fatal("nil source accepted")
	}
	w := QuickWorkloads()[0]
	tr := w.Generate(2000)
	path := writeLBP2File(t, t.TempDir(), "w.lbp2", tr)
	if _, err := Simulate(w, 0, BaselineTAGE(), WithTraceFile(path), WithSeed(7)); err == nil {
		t.Fatal("WithSeed on a file replay accepted")
	}
	src, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseTrace(src)
	if _, err := FromSource(src, BaselineTAGE(), WithGolden()); err == nil {
		t.Fatal("WithGolden on a streaming source accepted")
	}
	// WithGolden on an in-memory source still works.
	if _, err := FromSource(trace.NewSliceSource(tr), BaselineTAGE(), WithGolden()); err != nil {
		t.Fatal(err)
	}
}

// TestTraceFileReplayFixedMemory is the acceptance criterion: a >= 5M-
// instruction LBP2 trace replays at fixed memory — the replay's allocations
// are a small constant independent of trace length (the trace alone is
// ~190 MiB decoded) — and bit-identically to in-process generation.
func TestTraceFileReplayFixedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("5M-instruction replay is not a -short test")
	}
	w := QuickWorkloads()[0]
	const insts = 5_000_000
	tr := w.Generate(insts)
	dir := t.TempDir()
	path := writeLBP2File(t, dir, "big.lbp2", tr)
	smallPath := writeLBP2File(t, dir, "small.lbp2", tr[:insts/5])
	tr = nil

	replayAllocs := func(p string) (Result, uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Simulate(w, 0, BaselineTAGE(), WithTraceFile(p))
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return res, after.TotalAlloc - before.TotalAlloc
	}

	resSmall, allocSmall := replayAllocs(smallPath)
	resBig, allocBig := replayAllocs(path)
	if resSmall.Insts != insts/5 || resBig.Insts != insts {
		t.Fatalf("replayed %d and %d insts", resSmall.Insts, resBig.Insts)
	}
	t.Logf("replay allocations: 1M insts -> %.1f MiB, 5M insts -> %.1f MiB",
		float64(allocSmall)/(1<<20), float64(allocBig)/(1<<20))

	// Fixed memory: 5x the instructions must NOT cost 5x the allocations —
	// the window and decode buffers are constant, so the totals should be
	// nearly equal. Allow 1.5x slack for runtime noise, plus an absolute
	// ceiling far below the 190 MiB resident trace.
	if allocBig > allocSmall*3/2 {
		t.Fatalf("allocations scale with trace length: 1M -> %d B, 5M -> %d B", allocSmall, allocBig)
	}
	if allocBig > 64<<20 {
		t.Fatalf("5M-instruction replay allocated %d B; want far below the decoded trace size", allocBig)
	}

	// Bit-identity with in-process generation of the same workload/seed.
	want, err := Simulate(w, insts, BaselineTAGE())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, resBig) {
		t.Fatalf("5M file replay diverges from in-process generation\n  file: %+v\n  gen:  %+v", resBig, want)
	}
}
