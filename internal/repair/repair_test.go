package repair

import (
	"testing"

	"localbp/internal/bpu/loop"
)

// driver emulates the pipeline's call protocol on a Scheme for in-order
// sequences, and exposes manual control for out-of-order repair scenarios.
type driver struct {
	t     *testing.T
	s     Scheme
	seq   uint64
	cycle int64
}

func newDriver(t *testing.T, s Scheme) *driver { return &driver{t: t, s: s} }

// fetch runs the fetch-stage protocol for one branch with an explicit final
// prediction, returning its context (still "in flight").
func (d *driver) fetch(pc uint64, predicted, actual bool) *BranchCtx {
	d.seq++
	d.cycle++
	ctx := &BranchCtx{}
	ResetCtx(ctx)
	ctx.PC = pc
	ctx.Seq = d.seq
	ctx.PredTaken = predicted
	ctx.ActualTaken = actual
	ctx.OverrideAllowed = true
	d.s.OnFetchBranch(ctx, d.cycle)
	d.s.AllocCheck(ctx, d.cycle)
	return ctx
}

// resolveRetire completes a branch in order. A misprediction advances time
// past the repair window, as the pipeline's flush + refill shadow would.
func (d *driver) resolveRetire(ctx *BranchCtx) {
	d.cycle++
	misp := ctx.PredTaken != ctx.ActualTaken
	if misp {
		d.s.OnMispredict(ctx, d.cycle)
		d.cycle += 64
	} else {
		d.s.OnCorrectResolve(ctx, d.cycle)
	}
	d.s.OnRetire(ctx, misp)
}

// step runs one branch fully in order, using the scheme's own prediction
// when available (otherwise predicting the given fallback direction).
func (d *driver) step(pc uint64, actual, fallback bool) {
	pred := fallback
	if p := d.s.FetchPredict(pc, d.cycle); p.Valid {
		pred = p.Taken
	}
	ctx := d.fetch(pc, pred, actual)
	d.resolveRetire(ctx)
}

// trainLoop teaches the scheme a TTT..N loop at pc (fallback mispredicts
// exits, as a global predictor without the local pattern would).
func (d *driver) trainLoop(pc uint64, period, visits int) {
	for v := 0; v < visits; v++ {
		for i := 0; i < period; i++ {
			d.step(pc, i < period-1, true)
		}
	}
}

// lpOf extracts the primary local predictor from single-BHT schemes.
func lpOf(t *testing.T, s Scheme) loop.LocalPredictor {
	t.Helper()
	p, ok := s.(interface{ Predictor() loop.LocalPredictor })
	if !ok {
		t.Fatalf("%T does not expose its predictor", s)
	}
	return p.Predictor()
}

// corruptionScenario trains two loop PCs, then emulates: branch A (pcA,
// mid-run) is fetched with a wrong prediction; younger speculative updates
// (same PC and pcB, as a wrong path would produce) corrupt the BHT; A then
// resolves mispredicted. It returns the state both PCs should be restored
// to (pcA with its outcome applied).
func corruptionScenario(t *testing.T, d *driver) (pcA, pcB uint64, wantA, wantB loop.State) {
	pcA, pcB = 0x400000, 0x400400
	d.trainLoop(pcA, 10, 12)
	d.trainLoop(pcB, 7, 12)

	lp := lpOf(t, d.s)
	preA, okA := lp.LookupState(pcA)
	preB, okB := lp.LookupState(pcB)
	if !okA || !okB {
		t.Fatal("training left no BHT state")
	}

	// Branch A: actually taken (mid-run) but predicted not-taken.
	ctxA := d.fetch(pcA, false, true)
	// Younger wrong-path speculation corrupts both PCs.
	young := []*BranchCtx{
		d.fetch(pcA, true, true),
		d.fetch(pcB, true, true),
		d.fetch(pcB, true, true),
		d.fetch(pcA, true, true),
	}
	// A resolves mispredicted: repair, then squash the youngsters.
	d.cycle++
	d.s.OnMispredict(ctxA, d.cycle)
	for _, c := range young {
		d.s.OnSquash(c)
	}
	d.s.OnRetire(ctxA, true)

	wantA = preA
	// A's own update is rewound and its architectural outcome (taken,
	// matching the dominant direction) applied.
	wantA.Count++
	wantB = preB
	return pcA, pcB, wantA, wantB
}

func checkRestored(t *testing.T, s Scheme, pcA, pcB uint64, wantA, wantB loop.State) {
	t.Helper()
	lp := lpOf(t, s)
	gotA, _ := lp.LookupState(pcA)
	gotB, _ := lp.LookupState(pcB)
	if gotA != wantA {
		t.Errorf("pcA state %+v, want %+v", gotA, wantA)
	}
	if gotB != wantB {
		t.Errorf("pcB state %+v, want %+v", gotB, wantB)
	}
}

func TestPerfectRestoresExactly(t *testing.T) {
	d := newDriver(t, NewPerfect(loop.Loop128()))
	pcA, pcB, wantA, wantB := corruptionScenario(t, d)
	checkRestored(t, d.s, pcA, pcB, wantA, wantB)
	if st := d.s.Stats(); st.Repairs == 0 {
		t.Fatal("no repair recorded")
	}
	if d.s.Stats().BusyCycles != 0 {
		t.Fatal("perfect repair must be instantaneous")
	}
}

func TestForwardWalkRestoresLikePerfect(t *testing.T) {
	d := newDriver(t, NewForwardWalk(loop.Loop128(), 64, Ports{CkptRead: 64, BHTWrite: 64}, false))
	pcA, pcB, wantA, wantB := corruptionScenario(t, d)
	checkRestored(t, d.s, pcA, pcB, wantA, wantB)
}

func TestBackwardWalkRestoresLikePerfect(t *testing.T) {
	d := newDriver(t, NewBackwardWalk(loop.Loop128(), 64, Ports{CkptRead: 64, BHTWrite: 64}))
	pcA, pcB, wantA, wantB := corruptionScenario(t, d)
	checkRestored(t, d.s, pcA, pcB, wantA, wantB)
}

func TestSnapshotRestoresLikePerfect(t *testing.T) {
	d := newDriver(t, NewSnapshot(loop.Loop128(), 64, Ports{CkptRead: 64, BHTWrite: 64}))
	pcA, pcB, wantA, wantB := corruptionScenario(t, d)
	checkRestored(t, d.s, pcA, pcB, wantA, wantB)
}

func TestLimitedPCRestoresCarriedPCs(t *testing.T) {
	// With M=8 both hot PCs fit in the carried set, so the scenario
	// restores exactly like perfect repair.
	d := newDriver(t, NewLimitedPC(loop.Loop128(), 8, 4, false))
	pcA, pcB, wantA, wantB := corruptionScenario(t, d)
	checkRestored(t, d.s, pcA, pcB, wantA, wantB)
}

func TestForwardWritesFewerThanBackward(t *testing.T) {
	run := func(s Scheme) *Stats {
		d := newDriver(t, s)
		corruptionScenario(t, d)
		return s.Stats()
	}
	fwd := run(NewForwardWalk(loop.Loop128(), 64, Ports{CkptRead: 64, BHTWrite: 64}, false))
	bwd := run(NewBackwardWalk(loop.Loop128(), 64, Ports{CkptRead: 64, BHTWrite: 64}))
	if fwd.RepairWrites >= bwd.RepairWrites {
		t.Fatalf("forward wrote %d, backward %d; forward must write each PC once",
			fwd.RepairWrites, bwd.RepairWrites)
	}
	// The scenario updates pcA twice and pcB twice after the branch:
	// backward writes all 4 entries + A's own; forward writes one per PC.
	if bwd.RepairWrites < fwd.RepairWrites+2 {
		t.Fatalf("expected a clear write gap: fwd=%d bwd=%d", fwd.RepairWrites, bwd.RepairWrites)
	}
}

func TestWalkBusyWindowAndPortScaling(t *testing.T) {
	mk := func(ports Ports) *Stats {
		d := newDriver(t, NewBackwardWalk(loop.Loop128(), 64, ports))
		corruptionScenario(t, d)
		return d.s.Stats()
	}
	fast := mk(Ports{CkptRead: 64, BHTWrite: 64})
	slow := mk(Ports{CkptRead: 1, BHTWrite: 1})
	if slow.BusyCycles <= fast.BusyCycles {
		t.Fatalf("1-port walk (%d busy cycles) should be slower than 64-port (%d)",
			slow.BusyCycles, fast.BusyCycles)
	}
}

func TestBackwardWalkBlocksPredictionsWhileBusy(t *testing.T) {
	d := newDriver(t, NewBackwardWalk(loop.Loop128(), 64, Ports{CkptRead: 1, BHTWrite: 1}))
	pcA, _, _, _ := corruptionScenario(t, d)
	// Immediately after the repair started, the BHT must refuse service.
	if p := d.s.FetchPredict(pcA, d.cycle); p.Valid {
		t.Fatal("backward walk served a prediction during its busy window")
	}
}

func TestForwardWalkServesRepairedPCsWhileBusy(t *testing.T) {
	d := newDriver(t, NewForwardWalk(loop.Loop128(), 64, Ports{CkptRead: 1, BHTWrite: 1}, false))
	pcA, _, _, _ := corruptionScenario(t, d)
	if d.s.Stats().BusyCycles == 0 {
		t.Fatal("scenario produced no busy window")
	}
	// pcA was repaired first (walk starts at the mispredicting branch), so
	// its prediction is available even though the walk is still busy.
	if p := d.s.FetchPredict(pcA, d.cycle); !p.Valid {
		t.Fatal("forward walk refused a prediction for an already-repaired PC")
	}
	// An unrepaired PC (never in the walk) is still blocked.
	if p := d.s.FetchPredict(0x999000, d.cycle); p.Valid {
		t.Fatal("unrepaired PC served during the walk")
	}
}

func TestCoalescingReducesOBQPressure(t *testing.T) {
	run := func(coalesce bool) uint64 {
		s := NewForwardWalk(loop.Loop128(), 4, Ports{CkptRead: 4, BHTWrite: 2}, coalesce)
		d := newDriver(t, s)
		d.trainLoop(0x400000, 6, 12)
		// Many consecutive same-PC fetches with no retirement: only
		// coalescing keeps the 4-entry OBQ from overflowing.
		var ctxs []*BranchCtx
		for i := 0; i < 8; i++ {
			ctxs = append(ctxs, d.fetch(0x400000, true, true))
		}
		for _, c := range ctxs {
			d.s.OnRetire(c, false)
		}
		_, _, full := s.q.Stats()
		return full
	}
	if plain, merged := run(false), run(true); merged >= plain {
		t.Fatalf("coalescing did not relieve pressure: full(plain)=%d full(coalesced)=%d", plain, merged)
	}
}

func TestSnapshotSQFullLeavesUnprotected(t *testing.T) {
	s := NewSnapshot(loop.Loop128(), 2, Ports{CkptRead: 8, BHTWrite: 8})
	d := newDriver(t, s)
	d.trainLoop(0x400000, 6, 10)
	// Three outstanding branches against a 2-entry SQ.
	c1 := d.fetch(0x400000, true, true)
	c2 := d.fetch(0x400000, true, true)
	c3 := d.fetch(0x400000, false, true) // will mispredict, but unprotected
	if c3.OBQID >= 0 {
		t.Fatal("third branch should have been rejected by the full SQ")
	}
	d.cycle++
	d.s.OnMispredict(c3, d.cycle)
	if s.Stats().Unrepaired != 1 {
		t.Fatalf("unrepaired = %d, want 1", s.Stats().Unrepaired)
	}
	d.s.OnRetire(c1, false)
	d.s.OnRetire(c2, false)
}

func TestSnapshotFreesAtCorrectResolve(t *testing.T) {
	s := NewSnapshot(loop.Loop128(), 2, Ports{CkptRead: 8, BHTWrite: 8})
	d := newDriver(t, s)
	d.trainLoop(0x400000, 6, 10)
	c1 := d.fetch(0x400000, true, true)
	c2 := d.fetch(0x400000, true, true)
	d.s.OnCorrectResolve(c1, d.cycle) // frees its snapshot early
	c3 := d.fetch(0x400000, true, true)
	if c3.OBQID < 0 {
		t.Fatal("SQ slot not reusable after a correct resolve")
	}
	for _, c := range []*BranchCtx{c1, c2, c3} {
		d.s.OnRetire(c, false)
	}
}

func TestNoRepairLeavesCorruption(t *testing.T) {
	d := newDriver(t, NewNone(loop.Loop128()))
	pcA, _, wantA, _ := corruptionScenario(t, d)
	lp := lpOf(t, d.s)
	if got, _ := lp.LookupState(pcA); got == wantA {
		t.Fatal("no-repair scheme somehow restored the state")
	}
	if d.s.Stats().Unrepaired == 0 {
		t.Fatal("unrepaired counter did not advance")
	}
}

func TestRetireUpdateOffsetPrediction(t *testing.T) {
	s := NewRetireUpdate(loop.Loop128())
	d := newDriver(t, s)
	d.trainLoop(0x400000, 10, 14)
	// With nothing in flight the prediction tracks the retired count.
	p0 := s.FetchPredict(0x400000, d.cycle)
	if !p0.Valid {
		t.Fatal("trained retire-update predictor silent")
	}
	// Put instances in flight without retiring: the offset must advance
	// the prediction toward the exit.
	var ctxs []*BranchCtx
	sawExit := false
	for i := 0; i < 10; i++ {
		p := s.FetchPredict(0x400000, d.cycle)
		if p.Valid && !p.Taken {
			sawExit = true
		}
		ctxs = append(ctxs, d.fetch(0x400000, true, true))
	}
	if !sawExit {
		t.Fatal("in-flight offset never advanced the count to the exit")
	}
	for _, c := range ctxs {
		d.s.OnRetire(c, false)
	}
	if len(s.inflight) != 0 {
		t.Fatalf("in-flight counters leaked: %v", s.inflight)
	}
}

func TestRetireUpdateSquashReclaims(t *testing.T) {
	s := NewRetireUpdate(loop.Loop128())
	d := newDriver(t, s)
	d.trainLoop(0x400000, 10, 14)
	c := d.fetch(0x400000, true, true)
	if s.inflight[0x400000] != 1 {
		t.Fatalf("inflight = %d after fetch", s.inflight[0x400000])
	}
	d.s.OnSquash(c)
	if s.inflight[0x400000] != 0 {
		t.Fatalf("inflight = %d after squash", s.inflight[0x400000])
	}
}

func TestLimitedPCInvalidateVariant(t *testing.T) {
	d := newDriver(t, NewLimitedPC(loop.Loop128(), 2, 2, true))
	pcA, pcB, _, _ := corruptionScenario(t, d)
	lp := lpOf(t, d.s)
	// pcA repaired (self); pcB may have been invalidated if not carried.
	if _, ok := lp.LookupState(pcA); !ok {
		t.Fatal("self PC lost")
	}
	_ = pcB // either repaired (carried) or invalid; both acceptable
	if d.s.Stats().Repairs == 0 {
		t.Fatal("no repair recorded")
	}
}

func TestLimitedPCDeterministicLatency(t *testing.T) {
	s := NewLimitedPC(loop.Loop128(), 4, 2, false)
	d := newDriver(t, s)
	corruptionScenario(t, d)
	st := s.Stats()
	if st.Repairs == 0 {
		t.Fatal("no repairs")
	}
	// ceil(writes/ports) with at most M writes through 2 ports: the busy
	// time per repair is bounded by ceil(4/2) = 2 cycles.
	if st.BusyCycles > st.Repairs*2 {
		t.Fatalf("busy %d cycles over %d repairs exceeds the deterministic bound",
			st.BusyCycles, st.Repairs)
	}
}

func TestPortsCycles(t *testing.T) {
	cases := []struct {
		p    Ports
		r, w int
		want int64
	}{
		{Ports{4, 2}, 8, 4, 2},
		{Ports{4, 2}, 4, 4, 2},
		{Ports{4, 4}, 4, 4, 1},
		{Ports{1, 1}, 5, 5, 5},
		{Ports{4, 2}, 0, 0, 0},
		{Ports{8, 8}, 1, 1, 1},
	}
	for _, c := range cases {
		if got := c.p.cycles(c.r, c.w); got != c.want {
			t.Errorf("cycles(%+v, r=%d w=%d) = %d, want %d", c.p, c.r, c.w, got, c.want)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	if ceilDiv(5, 2) != 3 || ceilDiv(4, 2) != 2 || ceilDiv(0, 2) != 0 {
		t.Fatal("ceilDiv arithmetic wrong")
	}
	if ceilDiv(5, 0) < 1000 {
		t.Fatal("zero ports must behave as effectively infinite latency")
	}
	if ceilDiv(0, 0) != 0 {
		t.Fatal("0/0 should be free")
	}
}

func TestResetCtx(t *testing.T) {
	ctx := &BranchCtx{PC: 5, OBQID: 9, MarkValid: true, Mark: 7, Limited: make([]PCState, 3)}
	ResetCtx(ctx)
	if ctx.PC != 0 || ctx.OBQID != -1 || ctx.DeferOBQID != -1 || ctx.MarkValid || ctx.Mark != 0 {
		t.Fatalf("reset left state: %+v", ctx)
	}
	if len(ctx.Limited) != 0 {
		t.Fatal("slice not truncated")
	}
	if cap(ctx.Limited) != 3 {
		t.Fatal("slice capacity not preserved")
	}
}

func TestSchemeNames(t *testing.T) {
	c := loop.Loop128()
	schemes := []Scheme{
		NewPerfect(c), NewNone(c), NewRetireUpdate(c),
		NewBackwardWalk(c, 32, Ports{4, 4}),
		NewForwardWalk(c, 32, Ports{4, 2}, true),
		NewSnapshot(c, 32, Ports{8, 8}),
		NewLimitedPC(c, 2, 2, false),
		NewMultiStage(c, 32, true),
		NewMultiStage(c, 32, false),
	}
	seen := map[string]bool{}
	for _, s := range schemes {
		n := s.Name()
		if n == "" || seen[n] {
			t.Fatalf("bad or duplicate scheme name %q", n)
		}
		seen[n] = true
		if s.StorageBits() <= 0 {
			t.Fatalf("%s reports no storage", n)
		}
	}
}

func TestStorageOrdering(t *testing.T) {
	c := loop.Loop128()
	none := NewNone(c).StorageBits()
	fwd := NewForwardWalk(c, 32, Ports{4, 2}, false).StorageBits()
	snap := NewSnapshot(c, 32, Ports{8, 8}).StorageBits()
	if fwd <= none {
		t.Fatal("forward walk must cost more than bare predictor")
	}
	if snap <= fwd {
		t.Fatal("snapshot queue must be the most expensive (Table 3)")
	}
}

func TestOverridePenaltyOnWrongOverride(t *testing.T) {
	d := newDriver(t, NewPerfect(loop.Loop128()))
	pc := uint64(0x400000)
	d.trainLoop(pc, 10, 12)
	lp := lpOf(t, d.s)
	before := lp.PatternInfo(pc).Conf
	ctx := d.fetch(pc, false, true)
	ctx.UsedLoop = true // the local predictor drove this wrong prediction
	d.cycle++
	d.s.OnMispredict(ctx, d.cycle)
	d.s.OnRetire(ctx, true)
	if after := lp.PatternInfo(pc).Conf; after >= before {
		t.Fatalf("wrong override not penalized: conf %d -> %d", before, after)
	}
}
