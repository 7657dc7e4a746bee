package harness

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// writeLBP2 persists tr at path in the LBP2 format.
func writeLBP2(t *testing.T, path string, tr []trace.Inst) {
	t.Helper()
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
}

// TestTraceCacheStaleFile pins the keying fix: regenerating a trace file on
// disk must invalidate the cache entry, not serve the old contents.
func TestTraceCacheStaleFile(t *testing.T) {
	gen := workloads.QuickSuite()[0]
	path := filepath.Join(t.TempDir(), "w.lbp2")
	first := gen.Generate(2000)
	writeLBP2(t, path, first)

	tc := NewTraceCache()
	w := workloads.FromFile(path)
	got1, err := tc.Get(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got1) != 2000 {
		t.Fatalf("first read: %d insts", len(got1))
	}

	// Regenerate the file with different contents; force a distinct mtime in
	// case the filesystem's timestamp granularity would merge the writes.
	second := gen.Generate(3000)
	writeLBP2(t, path, second)
	if err := os.Chtimes(path, time.Time{}, time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	got2, err := tc.Get(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 3000 {
		t.Fatalf("stale cache: regenerated file served with %d insts, want 3000", len(got2))
	}

	// Same stamp → cached (pointer-identical slice).
	got3, err := tc.Get(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &got2[0] != &got3[0] {
		t.Fatal("unchanged file was re-read instead of served from cache")
	}
}

// TestRunSourceFileReplayBitIdentical checks a file-replayed simulation is
// bit-identical to the in-process-generated run of the same workload/seed.
func TestRunSourceFileReplayBitIdentical(t *testing.T) {
	w := workloads.QuickSuite()[2]
	const insts = 60_000
	tr := w.Generate(insts)
	spec := BaselineSpec()

	want, err := runTrace(tr, spec)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "w.lbp2")
	writeLBP2(t, path, tr)
	src, err := workloads.FromFile(path).Open(0)
	if err != nil {
		t.Fatal(err)
	}
	defer trace.CloseSource(src)
	got, err := Run(context.Background(), src, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("file replay diverges from in-process generation\n  file: %+v\n  gen:  %+v", got.Stats, want.Stats)
	}
}

// TestRunSourceQuickSuiteBitIdentical is the golden replay gate across the
// whole quick suite: every workload, written to LBP2 and streamed back
// through the source path, must reproduce the in-process run bit-exactly.
func TestRunSourceQuickSuiteBitIdentical(t *testing.T) {
	const insts = 12_000
	dir := t.TempDir()
	spec := BaselineSpec()
	for _, w := range workloads.QuickSuite() {
		tr := w.Generate(insts)
		want, err := runTrace(tr, spec)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		path := filepath.Join(dir, w.Name+".lbp2")
		writeLBP2(t, path, tr)
		src, err := trace.OpenSource(path)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		got, err := Run(context.Background(), src, spec)
		trace.CloseSource(src)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got.Stats != want.Stats {
			t.Fatalf("%s: file replay diverges from in-process generation\n  file: %+v\n  gen:  %+v",
				w.Name, got.Stats, want.Stats)
		}
	}
}

// TestRunSourceGoldenRequiresSlice pins the contract: an explicit golden
// oracle on a true streaming source errors out clearly instead of silently
// loading the trace.
func TestRunSourceGoldenRequiresSlice(t *testing.T) {
	w := workloads.QuickSuite()[0]
	path := filepath.Join(t.TempDir(), "w.lbp2")
	writeLBP2(t, path, w.Generate(5000))
	src, err := trace.OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer trace.CloseSource(src)
	spec := BaselineSpec()
	spec.Golden = true
	if _, err := Run(context.Background(), src, spec); err == nil {
		t.Fatal("golden oracle on a streaming source must error")
	}

	// On a slice-backed source the oracle runs as before.
	spec2 := BaselineSpec()
	spec2.Golden = true
	if _, err := runTrace(w.Generate(5000), spec2); err != nil {
		t.Fatal(err)
	}
}
