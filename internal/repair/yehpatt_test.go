package repair

import (
	"testing"

	"localbp/internal/bpu/loop"
)

// ypScenario trains a generic (bit-pattern) local predictor through the
// scheme, corrupts its speculative histories with younger updates, and
// triggers a repair — the pattern-state analogue of corruptionScenario.
func ypScenario(t *testing.T, d *driver) (pcA, pcB uint64, wantA, wantB loop.State) {
	t.Helper()
	pcA, pcB = 0x400000, 0x400400
	// Short repeating patterns that an 11-bit local history captures.
	for v := 0; v < 300; v++ {
		d.step(pcA, v%3 != 2, true)
		d.step(pcB, v%4 != 3, true)
	}
	lp := lpOf(t, d.s)
	preA, okA := lp.LookupState(pcA)
	preB, okB := lp.LookupState(pcB)
	if !okA || !okB {
		t.Fatal("training left no state")
	}

	ctxA := d.fetch(pcA, false, true) // mispredicted mid-pattern
	young := []*BranchCtx{
		d.fetch(pcB, true, true),
		d.fetch(pcA, true, true),
		d.fetch(pcB, false, true),
	}
	d.cycle++
	d.s.OnMispredict(ctxA, d.cycle)
	for _, c := range young {
		d.s.OnSquash(c)
	}
	d.s.OnRetire(ctxA, true)

	// pcA: its own wrong shift rewound, then the actual (taken) outcome
	// shifted in; pcB: restored exactly.
	wantA = preA
	wantA.Count = (preA.Count<<1 | 1) & 0x7ff
	wantB = preB
	return pcA, pcB, wantA, wantB
}

func TestForwardWalkRepairsGenericPredictor(t *testing.T) {
	d := newDriver(t, NewForwardWalkFor(loop.NewYehPatt(loop.YehPatt128()),
		64, Ports{CkptRead: 64, BHTWrite: 64}, false))
	pcA, pcB, wantA, wantB := ypScenario(t, d)
	checkRestored(t, d.s, pcA, pcB, wantA, wantB)
}

func TestBackwardWalkRepairsGenericPredictor(t *testing.T) {
	d := newDriver(t, NewBackwardWalkFor(loop.NewYehPatt(loop.YehPatt128()),
		64, Ports{CkptRead: 64, BHTWrite: 64}))
	pcA, pcB, wantA, wantB := ypScenario(t, d)
	checkRestored(t, d.s, pcA, pcB, wantA, wantB)
}

func TestPerfectRepairsGenericPredictor(t *testing.T) {
	d := newDriver(t, NewPerfectFor(loop.NewYehPatt(loop.YehPatt128())))
	pcA, pcB, wantA, wantB := ypScenario(t, d)
	checkRestored(t, d.s, pcA, pcB, wantA, wantB)
}

func TestSnapshotRepairsGenericPredictor(t *testing.T) {
	d := newDriver(t, NewSnapshotFor(loop.NewYehPatt(loop.YehPatt128()),
		64, Ports{CkptRead: 64, BHTWrite: 64}))
	pcA, pcB, wantA, wantB := ypScenario(t, d)
	checkRestored(t, d.s, pcA, pcB, wantA, wantB)
}

func TestLimitedPCRepairsGenericPredictor(t *testing.T) {
	d := newDriver(t, NewLimitedPCFor(loop.NewYehPatt(loop.YehPatt128()), 8, 4, false))
	pcA, pcB, wantA, wantB := ypScenario(t, d)
	checkRestored(t, d.s, pcA, pcB, wantA, wantB)
}

func TestGenericPredictorGainsUnderRepair(t *testing.T) {
	// End-to-end sanity: with repair the generic predictor predicts its
	// trained pattern despite interleaved mispredictions of a noise PC.
	d := newDriver(t, NewForwardWalkFor(loop.NewYehPatt(loop.YehPatt128()),
		64, Ports{CkptRead: 8, BHTWrite: 8}, false))
	pat := func(v int) bool { return v%5 != 4 }
	for v := 0; v < 400; v++ {
		d.step(0x400000, pat(v), true)
		if v%7 == 0 {
			d.step(0x500000, v%14 == 0, true) // noisy flush source
		}
	}
	correct, pred := 0, 0
	for v := 400; v < 480; v++ {
		p := d.s.FetchPredict(0x400000, d.cycle)
		if p.Valid {
			pred++
			if p.Taken == pat(v) {
				correct++
			}
		}
		d.step(0x400000, pat(v), true)
	}
	if pred == 0 {
		t.Fatal("generic predictor silent after training")
	}
	if float64(correct)/float64(pred) < 0.9 {
		t.Fatalf("accuracy %d/%d under repair", correct, pred)
	}
}
