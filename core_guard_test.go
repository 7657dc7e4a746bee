package localbp

import (
	"runtime"
	"testing"

	"localbp/internal/trace"
)

// TestCoreLoopAllocGuard pins the hot-path allocation contract after the
// zero-alloc overhaul: a simulation's allocations are a fixed per-run setup
// (predictor tables, ROB/queue arrays, the pre-sized branch-record pool),
// never per-instruction, per-branch or per-cycle work. Three guards enforce
// it:
//
//  1. scaling — doubling the trace length must not grow the allocation
//     count (the pre-overhaul loop boxed every branch resolution through
//     the heap interface, which this catches immediately);
//  2. budget — the absolute per-run count stays within the known setup
//     cost, so steady-state allocations cannot hide behind a shrinking
//     setup elsewhere;
//  3. bytes — every run hands its memory hierarchy's cache arrays back for
//     the next (harness.Run recycles them), so back-to-back runs allocate
//     only the per-run setup.
func TestCoreLoopAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run allocation measurement")
	}
	w, ok := Workload("cloud-compression")
	if !ok {
		t.Fatal("workload missing")
	}
	run := func(tr []trace.Inst) {
		if _, err := FromSource(trace.NewSliceSource(tr), ForwardWalk()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(tr []trace.Inst) float64 {
		return testing.AllocsPerRun(1, func() { run(tr) })
	}
	short := w.Generate(30_000)
	long := w.Generate(60_000)
	aShort := allocs(short)
	aLong := allocs(long)
	// A handful of slack covers incidental runtime-internal allocations;
	// any per-branch or per-cycle allocation would add thousands.
	if aLong > aShort+64 {
		t.Fatalf("core-loop allocations scale with trace length: %.0f at 30k insts, %.0f at 60k",
			aShort, aLong)
	}
	// A run makes about 80 allocations (predictor tables, ROB and queue
	// arrays, arenas). 4096 catches any return of per-branch allocation
	// (which sat at ~20k for 120k insts) while tolerating setup growth.
	if aShort > 4096 {
		t.Fatalf("per-run setup allocations %.0f exceed the 4096 budget", aShort)
	}
	// A recycling run allocates about 0.55 MB at 30k insts; one that builds
	// a fresh hierarchy allocates its ~1.7 MB of cache arrays on top.
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run(short)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 1<<20 {
		t.Fatalf("a 30k-inst run allocates %d B, over the 1 MiB budget (is the memory hierarchy recycled?)", b)
	}
	t.Logf("%.0f allocations at 30k insts, %.0f at 60k; %d B per 30k-inst run",
		aShort, aLong, (after.TotalAlloc-before.TotalAlloc)/runs)
}
