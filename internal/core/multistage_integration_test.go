package core

import (
	"testing"

	"localbp/internal/bpu"
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/repair"
	"localbp/internal/trace"
)

// loopHeavyTrace builds a trace where the local predictor has real work:
// diluted loops whose exits TAGE cannot pin down.
func loopHeavyTrace(n int, seed int64) []trace.Inst {
	prog := trace.Program{Regions: []trace.Region{
		trace.Loop{Site: 0, Periods: trace.FixedPeriod(24), Body: []trace.Region{
			trace.Block{Site: 1, Len: 5},
			trace.Cond{Site: 2, Outcome: trace.BiasedPattern{P: 0.8}, ThenLen: 3, ElseLen: 2},
		}},
		trace.Loop{Site: 3, Periods: trace.FixedPeriod(17), Body: []trace.Region{
			trace.Block{Site: 4, Len: 4},
			trace.Cond{Site: 5, Outcome: trace.BiasedPattern{P: 0.85}, ThenLen: 2, ElseLen: 2},
		}},
		trace.Block{Site: 6, Len: 10},
	}}
	return trace.Generate(prog, n, seed)
}

func runScheme(t *testing.T, tr []trace.Inst, mk func() repair.Scheme) (Stats, *repair.Stats) {
	t.Helper()
	var scheme repair.Scheme
	if mk != nil {
		scheme = mk()
	}
	unit := bpu.NewUnit(tage.KB8(), scheme)
	st := mustSimulate(t, New(DefaultConfig(), unit, tr))
	if scheme != nil {
		return st, scheme.Stats()
	}
	return st, nil
}

func TestMultiStageEndToEnd(t *testing.T) {
	tr := loopHeavyTrace(200_000, 17)
	base, _ := runScheme(t, tr, nil)
	ms, rst := runScheme(t, tr, func() repair.Scheme {
		return repair.NewMultiStage(loop.Loop128(), 32, true)
	})
	if ms.MPKI() >= base.MPKI() {
		t.Fatalf("multi-stage did not reduce MPKI: %.3f -> %.3f", base.MPKI(), ms.MPKI())
	}
	if rst.Repairs == 0 {
		t.Fatal("no repairs performed")
	}
	// The multi-stage design must produce early resteers — that's its
	// deferred-override mechanism — and they must appear in core stats.
	if ms.EarlyResteers == 0 {
		t.Fatal("no early resteers recorded by the core")
	}
	if ms.EarlyResteers != rst.EarlyResteers {
		t.Fatalf("core saw %d early resteers, scheme %d",
			ms.EarlyResteers, rst.EarlyResteers)
	}
}

func TestEarlyResteerCheaperThanFullMispredict(t *testing.T) {
	// With the deferred override correcting a would-be misprediction, the
	// branch must not count as mispredicted at resolve.
	tr := loopHeavyTrace(200_000, 29)
	ms, _ := runScheme(t, tr, func() repair.Scheme {
		return repair.NewMultiStage(loop.Loop128(), 32, true)
	})
	if ms.EarlyResteers == 0 {
		t.Skip("no early resteers in this run")
	}
	if ms.Flushes >= ms.Mispredicts+ms.EarlyResteers {
		t.Fatalf("flush accounting inconsistent: flushes=%d mispredicts=%d resteers=%d",
			ms.Flushes, ms.Mispredicts, ms.EarlyResteers)
	}
}

func TestWrongPathBudgetBounds(t *testing.T) {
	tr := loopHeavyTrace(100_000, 31)
	cfg := DefaultConfig()
	cfg.MaxWrongPathPerFlush = 8
	unit := bpu.NewUnit(tage.KB8(), nil)
	st := mustSimulate(t, New(cfg, unit, tr))
	if st.Flushes > 0 && st.WrongPathInsts > st.Flushes*8+uint64(cfg.MaxWrongPathPerFlush) {
		t.Fatalf("wrong-path budget exceeded: %d insts over %d flushes",
			st.WrongPathInsts, st.Flushes)
	}
}

func TestRepairSchemesAllRunEndToEnd(t *testing.T) {
	tr := loopHeavyTrace(120_000, 37)
	c := loop.Loop128()
	schemes := map[string]func() repair.Scheme{
		"perfect":  func() repair.Scheme { return repair.NewPerfect(c) },
		"none":     func() repair.Scheme { return repair.NewNone(c) },
		"retire":   func() repair.Scheme { return repair.NewRetireUpdate(c) },
		"snapshot": func() repair.Scheme { return repair.NewSnapshot(c, 32, repair.Ports{CkptRead: 8, BHTWrite: 8}) },
		"backward": func() repair.Scheme { return repair.NewBackwardWalk(c, 32, repair.Ports{CkptRead: 4, BHTWrite: 4}) },
		"forward": func() repair.Scheme {
			return repair.NewForwardWalk(c, 32, repair.Ports{CkptRead: 4, BHTWrite: 2}, true)
		},
		"multi":   func() repair.Scheme { return repair.NewMultiStage(c, 32, false) },
		"limited": func() repair.Scheme { return repair.NewLimitedPC(c, 4, 4, false) },
	}
	for name, mk := range schemes {
		st, _ := runScheme(t, tr, mk)
		if st.Insts != 120_000 {
			t.Errorf("%s: retired %d of 120000", name, st.Insts)
		}
		if st.IPC() <= 0 {
			t.Errorf("%s: IPC %.3f", name, st.IPC())
		}
	}
}

func TestPerfectBeatsUnrepairedEverywhere(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr := loopHeavyTrace(150_000, seed)
		perfect, _ := runScheme(t, tr, func() repair.Scheme { return repair.NewPerfect(loop.Loop128()) })
		none, _ := runScheme(t, tr, func() repair.Scheme { return repair.NewNone(loop.Loop128()) })
		if perfect.MPKI() > none.MPKI() {
			t.Errorf("seed %d: perfect repair (%.3f MPKI) worse than no repair (%.3f)",
				seed, perfect.MPKI(), none.MPKI())
		}
	}
}
