package core

import (
	"testing"

	"localbp/internal/trace"
)

func TestWarmupExcludesLeadingInstructions(t *testing.T) {
	tr := loopHeavyTrace(80_000, 41)
	cfg := DefaultConfig()
	cfg.WarmupInsts = 30_000
	st := run(t, cfg, tr)
	if st.Insts != 50_000 {
		t.Fatalf("post-warmup instructions %d, want 50000", st.Insts)
	}
	if st.Cycles <= 0 || st.IPC() <= 0 {
		t.Fatalf("warmup-adjusted stats degenerate: %+v", st)
	}

	// The warmed measurement must not exceed the full-run cycle count.
	full := run(t, DefaultConfig(), tr)
	if st.Cycles >= full.Cycles {
		t.Fatalf("warmed cycles %d not below full %d", st.Cycles, full.Cycles)
	}
}

func TestWarmupLowersMPKI(t *testing.T) {
	// Predictor training happens mostly in the first phase: excluding it
	// must not raise MPKI for a learnable workload.
	prog := trace.Program{Regions: []trace.Region{
		trace.Loop{Site: 0, Periods: trace.FixedPeriod(8), Body: []trace.Region{
			trace.Block{Site: 1, Len: 6},
		}},
	}}
	tr := trace.Generate(prog, 100_000, 3)
	full := run(t, DefaultConfig(), tr)
	cfg := DefaultConfig()
	cfg.WarmupInsts = 50_000
	warm := run(t, cfg, tr)
	if warm.MPKI() > full.MPKI() {
		t.Fatalf("warmed MPKI %.3f above full-run %.3f", warm.MPKI(), full.MPKI())
	}
}

func TestBTBMissesCounted(t *testing.T) {
	tr := loopHeavyTrace(60_000, 43)
	st := run(t, DefaultConfig(), tr)
	if st.BTBMisses == 0 {
		t.Fatal("no cold BTB misses on a fresh core")
	}
	// A 2K-entry BTB over a handful of sites: misses must be rare after
	// the cold start.
	if st.BTBMisses > st.Branches/20 {
		t.Fatalf("BTB steady-state misses too high: %d of %d branches",
			st.BTBMisses, st.Branches)
	}
}

func TestBTBDisableRemovesBubbles(t *testing.T) {
	tr := loopHeavyTrace(60_000, 47)
	cfg := DefaultConfig()
	cfg.BTB.Entries = 0 // disable
	st := run(t, cfg, tr)
	if st.BTBMisses != 0 {
		t.Fatal("BTB misses counted with the BTB disabled")
	}
	withBTB := run(t, DefaultConfig(), tr)
	if withBTB.Cycles < st.Cycles {
		t.Fatalf("BTB bubbles made the run faster? %d vs %d", withBTB.Cycles, st.Cycles)
	}
}
