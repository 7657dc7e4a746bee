package localbp

import (
	"runtime"
	"testing"

	"localbp/internal/trace"
)

// TestCoreLoopAllocGuard pins the hot-path allocation contract after the
// zero-alloc overhaul: a simulation's allocations are a fixed per-run setup
// (predictor tables, ROB/queue arrays, the pre-sized branch-record pool),
// never per-instruction, per-branch or per-cycle work. It runs forward walk
// and the two schemes that checkpoint the whole BHT (perfect repair and the
// snapshot queue), whose undo journal must stay bounded by the in-flight
// window. Four guards enforce it:
//
//  1. scaling — doubling the trace length must not grow the allocation
//     count (a resolution queue that boxes or copies each branch resolution
//     onto the heap adds thousands, which this catches immediately);
//  2. budget — the absolute per-run count stays within the known setup
//     cost, so steady-state allocations cannot hide behind a shrinking
//     setup elsewhere;
//  3. bytes — every run hands its memory hierarchy's cache arrays back for
//     the next (harness.Run recycles them) and the resolution heap is one
//     slice that grows to the in-flight branch count, so back-to-back runs
//     allocate only the per-run setup;
//  4. byte scaling — doubling the trace length must not grow the bytes
//     per run by more than 16 KiB (a BHT journal that is never trimmed
//     grows by about 0.9 MB per 30k instructions).
func TestCoreLoopAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run allocation measurement")
	}
	w, ok := Workload("cloud-compression")
	if !ok {
		t.Fatal("workload missing")
	}
	short := w.Generate(30_000)
	long := w.Generate(60_000)
	for _, s := range []Scheme{ForwardWalk(), PerfectRepair(), SnapshotQueue()} {
		t.Run(s.Label(), func(t *testing.T) {
			run := func(tr []trace.Inst) {
				if _, err := FromSource(trace.NewSliceSource(tr), s); err != nil {
					t.Fatal(err)
				}
			}
			allocs := func(tr []trace.Inst) float64 {
				return testing.AllocsPerRun(1, func() { run(tr) })
			}
			aShort := allocs(short)
			aLong := allocs(long)
			// A handful of slack covers incidental runtime-internal
			// allocations; any per-branch or per-cycle allocation would
			// add thousands.
			if aLong > aShort+64 {
				t.Fatalf("core-loop allocations scale with trace length: %.0f at 30k insts, %.0f at 60k",
					aShort, aLong)
			}
			// A run makes 80-90 allocations (predictor tables, ROB and
			// queue arrays, arenas, the journal). 4096 catches any return
			// of per-branch allocation (which sat at ~20k for 120k insts)
			// while tolerating setup growth.
			if aShort > 4096 {
				t.Fatalf("per-run setup allocations %.0f exceed the 4096 budget", aShort)
			}
			// A recycling run allocates about 0.3 MB; one that builds a
			// fresh hierarchy allocates its ~1.7 MB of cache arrays on top.
			bShort, bLong := bytesPerRun(func() { run(short) }), bytesPerRun(func() { run(long) })
			if bShort > 512<<10 {
				t.Fatalf("a 30k-inst run allocates %d B, over the 512 KiB budget (is the memory hierarchy recycled?)", bShort)
			}
			if bLong > bShort+16<<10 {
				t.Fatalf("bytes per run scale with trace length: %d B at 30k insts, %d B at 60k", bShort, bLong)
			}
			t.Logf("%.0f allocations at 30k insts, %.0f at 60k; %d B per 30k-inst run, %d B per 60k-inst run",
				aShort, aLong, bShort, bLong)
		})
	}
}

// bytesPerRun returns the mean bytes allocated by four calls of run.
func bytesPerRun(run func()) uint64 {
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}
