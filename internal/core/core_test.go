package core

import (
	"context"
	"testing"

	"localbp/internal/bpu"
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/repair"
	"localbp/internal/trace"
)

func baselineUnit() *bpu.Unit { return bpu.NewUnit(tage.KB8(), nil) }

// simulate runs c to completion under a Background context: the one path
// by which core tests reach RunContext outside the cancellation tests.
func simulate(c *Core) (Stats, error) { return c.RunContext(context.Background()) }

// mustSimulate is simulate for runs that must complete without error.
func mustSimulate(t testing.TB, c *Core) Stats {
	t.Helper()
	st, err := simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func run(t *testing.T, cfg Config, tr []trace.Inst) Stats {
	t.Helper()
	return mustSimulate(t, New(cfg, baselineUnit(), tr))
}

func aluTrace(n int, dst func(i int) uint8, src func(i int) uint8) []trace.Inst {
	tr := make([]trace.Inst, n)
	for i := range tr {
		tr[i] = trace.Inst{PC: uint64(0x1000 + (i%64)*4), Class: trace.ClassALU,
			Dst: dst(i), Src1: src(i)}
	}
	return tr
}

func TestIndependentALUReachesFullWidth(t *testing.T) {
	tr := aluTrace(50_000,
		func(i int) uint8 { return uint8(1 + i%60) },
		func(i int) uint8 { return 0 })
	st := run(t, DefaultConfig(), tr)
	if st.IPC() < 3.9 {
		t.Fatalf("independent ALU IPC %.2f, want ~4", st.IPC())
	}
	if st.Insts != 50_000 {
		t.Fatalf("retired %d of 50000", st.Insts)
	}
}

func TestSerialChainIsOneIPC(t *testing.T) {
	tr := aluTrace(20_000,
		func(i int) uint8 { return 1 },
		func(i int) uint8 { return 1 })
	st := run(t, DefaultConfig(), tr)
	if st.IPC() < 0.95 || st.IPC() > 1.05 {
		t.Fatalf("serial chain IPC %.2f, want ~1", st.IPC())
	}
}

func TestLoadPortsLimitThroughput(t *testing.T) {
	n := 30_000
	tr := make([]trace.Inst, n)
	for i := range tr {
		tr[i] = trace.Inst{PC: 0x2000, Class: trace.ClassLoad,
			Dst: uint8(1 + i%60), Addr: uint64(0x100000 + i*8)}
	}
	st := run(t, DefaultConfig(), tr)
	if st.IPC() < 1.8 || st.IPC() > 2.1 {
		t.Fatalf("streaming load IPC %.2f, want ~2 (2 load ports)", st.IPC())
	}
}

func TestAllInstructionsRetire(t *testing.T) {
	prog := trace.Program{Regions: []trace.Region{
		trace.Loop{Site: 0, Periods: trace.FixedPeriod(13), Body: []trace.Region{
			trace.Block{Site: 1, Len: 6},
			trace.Cond{Site: 2, Outcome: trace.BiasedPattern{P: 0.7}, ThenLen: 2, ElseLen: 2},
		}},
	}}
	tr := trace.Generate(prog, 40_000, 3)
	st := run(t, DefaultConfig(), tr)
	if st.Insts != 40_000 {
		t.Fatalf("retired %d of 40000", st.Insts)
	}
	want := trace.Summarize(tr).Branches
	if st.Branches != uint64(want) {
		t.Fatalf("retired %d branches, trace has %d", st.Branches, want)
	}
}

func TestDeterminism(t *testing.T) {
	prog := trace.Program{Regions: []trace.Region{
		trace.Loop{Site: 0, Periods: trace.FixedPeriod(9), Body: []trace.Region{
			trace.Block{Site: 1, Len: 4},
		}},
		trace.Cond{Site: 2, Outcome: trace.BiasedPattern{P: 0.6}, ThenLen: 3, ElseLen: 1},
	}}
	tr := trace.Generate(prog, 30_000, 11)
	mk := func() Stats {
		scheme := repair.NewForwardWalk(loop.Loop128(), 32, repair.Ports{CkptRead: 4, BHTWrite: 2}, true)
		return mustSimulate(t, New(DefaultConfig(), bpu.NewUnit(tage.KB8(), scheme), tr))
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestMispredictionsCostCycles(t *testing.T) {
	// Same instruction mix; one trace has a predictable branch, the other
	// a random one. The random trace must take noticeably longer.
	mk := func(pat trace.PatternGen) []trace.Inst {
		prog := trace.Program{Regions: []trace.Region{
			trace.Cond{Site: 0, Outcome: pat, ThenLen: 4, ElseLen: 4},
			trace.Block{Site: 1, Len: 6},
		}}
		return trace.Generate(prog, 50_000, 5)
	}
	predictable := run(t, DefaultConfig(), mk(&trace.RepeatingPattern{Pattern: []bool{true, false}}))
	random := run(t, DefaultConfig(), mk(trace.BiasedPattern{P: 0.5}))
	if random.MPKI() < 5*predictable.MPKI() {
		t.Fatalf("MPKI separation missing: random %.2f predictable %.2f",
			random.MPKI(), predictable.MPKI())
	}
	if random.Cycles < predictable.Cycles+int64(random.Mispredicts)*5 {
		t.Fatalf("mispredictions too cheap: %d vs %d cycles for %d mispredicts",
			random.Cycles, predictable.Cycles, random.Mispredicts)
	}
}

func TestWrongPathSynthesis(t *testing.T) {
	prog := trace.Program{Regions: []trace.Region{
		trace.Cond{Site: 0, Outcome: trace.BiasedPattern{P: 0.5}, ThenLen: 3, ElseLen: 3},
		trace.Block{Site: 1, Len: 4},
	}}
	tr := trace.Generate(prog, 30_000, 7)
	cfg := DefaultConfig()
	withWP := run(t, cfg, tr)
	cfg.WrongPath = false
	withoutWP := run(t, cfg, tr)
	if withWP.WrongPathInsts == 0 {
		t.Fatal("no wrong-path instructions synthesized")
	}
	if withoutWP.WrongPathInsts != 0 {
		t.Fatal("wrong path synthesized despite being disabled")
	}
	if withWP.Insts != withoutWP.Insts {
		t.Fatal("wrong path altered the retired instruction count")
	}
}

func TestFlushCountMatchesMispredicts(t *testing.T) {
	prog := trace.Program{Regions: []trace.Region{
		trace.Cond{Site: 0, Outcome: trace.BiasedPattern{P: 0.5}, ThenLen: 3, ElseLen: 3},
		trace.Block{Site: 1, Len: 4},
	}}
	tr := trace.Generate(prog, 30_000, 9)
	st := run(t, DefaultConfig(), tr)
	if st.Flushes != st.Mispredicts {
		t.Fatalf("flushes %d != mispredicts %d (no early resteers configured)",
			st.Flushes, st.Mispredicts)
	}
}

func TestDeepFrontEndRaisesPenalty(t *testing.T) {
	prog := trace.Program{Regions: []trace.Region{
		trace.Cond{Site: 0, Outcome: trace.BiasedPattern{P: 0.5}, ThenLen: 3, ElseLen: 3},
		trace.Block{Site: 1, Len: 4},
	}}
	tr := trace.Generate(prog, 30_000, 13)
	shallow := DefaultConfig()
	shallow.FrontendDepth = 4
	deep := DefaultConfig()
	deep.FrontendDepth = 20
	a := run(t, shallow, tr)
	b := run(t, deep, tr)
	if b.Cycles <= a.Cycles {
		t.Fatalf("deeper front end not slower: %d vs %d cycles", b.Cycles, a.Cycles)
	}
}

func TestStatsAccessors(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.MPKI() != 0 || s.TageMPKI() != 0 {
		t.Fatal("zero-value stats should report zeros")
	}
	s = Stats{Cycles: 100, Insts: 250, Mispredicts: 5, TageMispredicts: 10}
	if s.IPC() != 2.5 {
		t.Fatalf("IPC %v", s.IPC())
	}
	if s.MPKI() != 20 {
		t.Fatalf("MPKI %v", s.MPKI())
	}
	if s.TageMPKI() != 40 {
		t.Fatalf("TageMPKI %v", s.TageMPKI())
	}
}

func TestEmptyProgramTerminates(t *testing.T) {
	st := run(t, DefaultConfig(), nil)
	if st.Insts != 0 {
		t.Fatal("retired instructions from an empty program")
	}
}

func TestSchemeIntegration(t *testing.T) {
	// End-to-end: a loop-heavy trace must lose MPKI when the local
	// predictor with perfect repair is attached, and must not when the
	// repair is absent.
	prog := trace.Program{Regions: []trace.Region{
		trace.Loop{Site: 0, Periods: trace.FixedPeriod(30), Body: []trace.Region{
			trace.Block{Site: 1, Len: 4},
			trace.Cond{Site: 2, Outcome: trace.BiasedPattern{P: 0.8}, ThenLen: 2, ElseLen: 2},
		}},
	}}
	tr := trace.Generate(prog, 150_000, 21)

	base := run(t, DefaultConfig(), tr)
	perfect := mustSimulate(t, New(DefaultConfig(),
		bpu.NewUnit(tage.KB8(), repair.NewPerfect(loop.Loop128())), tr))
	if perfect.MPKI() >= base.MPKI() {
		t.Fatalf("perfect repair did not reduce MPKI: %.3f -> %.3f", base.MPKI(), perfect.MPKI())
	}
	if perfect.IPC() < base.IPC() {
		t.Fatalf("perfect repair lost IPC: %.3f -> %.3f", base.IPC(), perfect.IPC())
	}
}

func TestResourceTake(t *testing.T) {
	r := newResource(2)
	if got := r.take(10); got != 10 {
		t.Fatalf("first unit start %d", got)
	}
	if got := r.take(10); got != 10 {
		t.Fatalf("second unit start %d", got)
	}
	if got := r.take(10); got != 11 {
		t.Fatalf("third op should wait: start %d", got)
	}
}
