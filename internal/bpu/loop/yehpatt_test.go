package loop

import (
	"slices"
	"testing"
	"testing/quick"
)

// trainYehPatt drives pc through outcomes with the pipeline protocol:
// speculative update with the prediction (or the actual when no
// prediction), repair via ApplyOutcome on mispredicts, PT training at
// retire.
func trainYehPatt(p *YehPatt, pc uint64, outcome func(i int) bool, n int) (predicted, correct int) {
	for i := 0; i < n; i++ {
		actual := outcome(i)
		pred := p.Predict(pc)
		// The fallback baseline predicts taken, so it mispredicts every
		// not-taken outcome — which is what drives allocation.
		d := true
		if pred.Valid {
			d = pred.Taken
			predicted++
			if pred.Taken == actual {
				correct++
			}
		}
		p.SpecUpdate(pc, d)
		misp := d != actual
		if misp {
			st, ok := p.LookupState(pc)
			if ok {
				// Rewind the wrong shift and apply the outcome, as a
				// repair scheme would.
				st.Count >>= 1
				p.RestoreState(pc, st)
			}
			p.ApplyOutcome(pc, actual)
		}
		p.Retire(pc, actual, misp)
	}
	return predicted, correct
}

func TestLearnsRepeatingPattern(t *testing.T) {
	p := NewYehPatt(YehPatt128())
	pat := []bool{true, true, false, true, false, false}
	pred, correct := trainYehPatt(p, 0x400000, func(i int) bool { return pat[i%len(pat)] }, 4000)
	if pred == 0 {
		t.Fatal("never predicted")
	}
	if frac := float64(correct) / float64(pred); frac < 0.95 {
		t.Fatalf("pattern accuracy %.3f after training", frac)
	}
}

func TestLearnsShortLoopPattern(t *testing.T) {
	p := NewYehPatt(YehPatt128())
	// TTTTTN: period 6 fits in an 11-bit local history.
	pred, correct := trainYehPatt(p, 0x400400, func(i int) bool { return i%6 != 5 }, 6000)
	if pred == 0 {
		t.Fatal("never predicted")
	}
	if frac := float64(correct) / float64(pred); frac < 0.95 {
		t.Fatalf("loop accuracy %.3f", frac)
	}
}

func TestCannotLearnLongLoop(t *testing.T) {
	// Period 40 > 11 history bits: mid-loop patterns are all-taken and
	// indistinguishable, so exits stay unpredictable — the reason loop
	// predictors beat generic local predictors on long loops (paper §1).
	p := NewYehPatt(YehPatt128())
	exitsPredictedExit := 0
	trainYehPatt(p, 0x400800, func(i int) bool { return i%40 != 39 }, 4000)
	for v := 0; v < 40; v++ {
		pr := p.Predict(0x400800)
		actual := v != 39
		if pr.Valid && !pr.Taken && !actual {
			exitsPredictedExit++
		}
		p.SpecUpdate(0x400800, actual)
		p.Retire(0x400800, actual, false)
	}
	if exitsPredictedExit != 0 {
		t.Fatal("an 11-bit pattern cannot see a period-40 exit coming")
	}
}

func TestWarmupGatesPredictions(t *testing.T) {
	p := NewYehPatt(YehPatt128())
	p.Retire(0x400000, true, true) // allocate
	if pr := p.Predict(0x400000); pr.Valid {
		t.Fatal("predicted before the history warmed up")
	}
}

func TestSpecUpdateShiftsPattern(t *testing.T) {
	p := NewYehPatt(YehPatt128())
	pc := uint64(0x400000)
	trainYehPatt(p, pc, func(i int) bool { return i%2 == 0 }, 100)
	st, ok := p.LookupState(pc)
	if !ok {
		t.Fatal("no state")
	}
	p.SpecUpdate(pc, true)
	st2, _ := p.LookupState(pc)
	want := (st.Count<<1 | 1) & 0x7ff
	if st2.Count != want {
		t.Fatalf("pattern %011b after shift, want %011b", st2.Count, want)
	}
}

func TestRestoreStateRoundTrip(t *testing.T) {
	p := NewYehPatt(YehPatt128())
	pc := uint64(0x400000)
	trainYehPatt(p, pc, func(i int) bool { return i%3 != 0 }, 200)
	st, _ := p.LookupState(pc)
	for i := 0; i < 7; i++ {
		p.SpecUpdate(pc, i%2 == 0)
	}
	p.RestoreState(pc, st)
	if got, _ := p.LookupState(pc); got != st {
		t.Fatalf("restore mismatch: %+v vs %+v", got, st)
	}
}

func TestYehPattSnapshotRestoreProperty(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		p := NewYehPatt(YehPatt64())
		r := newTestRand(seed)
		for i := 0; i < int(ops); i++ {
			pc := uint64(0x400000 + (r.next()%24)*0x400)
			p.Retire(pc, r.next()%2 == 0, true)
			p.SpecUpdate(pc, r.next()%2 == 0)
		}
		m := p.Mark()
		saved := append([]bhtEntry(nil), p.entries...)
		for i := 0; i < int(ops); i++ {
			pc := uint64(0x400000 + (r.next()%24)*0x400)
			p.SpecUpdate(pc, r.next()%2 == 0)
		}
		p.Rollback(m)
		return slices.Equal(p.entries, saved) && p.DiffSince(m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestYehPattRepairBits(t *testing.T) {
	p := NewYehPatt(YehPatt128())
	pc := uint64(0x400000)
	trainYehPatt(p, pc, func(i int) bool { return true }, 50)
	p.RepairStart()
	if !p.RepairBitSet(pc) {
		t.Fatal("bit should arm on RepairStart")
	}
	p.RestoreState(pc, State{Count: 3, Valid: true})
	if p.RepairBitSet(pc) {
		t.Fatal("bit should clear on the first repair write")
	}
}

func TestWorksWithRepairSchemes(t *testing.T) {
	// The paper's claim: the repair machinery is predictor-agnostic.
	// Covered end-to-end in internal/repair and the harness; here we only
	// verify the interface contract is complete.
	var _ LocalPredictor = NewYehPatt(YehPatt128())
}

func TestPenalizeWeakensCounter(t *testing.T) {
	p := NewYehPatt(YehPatt128())
	pc := uint64(0x400000)
	// All-taken training never mispredicts the taken fallback, so
	// allocate the entry with one mispredicted retire first.
	p.Retire(pc, true, true)
	trainYehPatt(p, pc, func(i int) bool { return true }, 100)
	if !p.PatternConfident(pc) {
		t.Fatal("not confident after all-taken training")
	}
	p.PenalizeOverride(pc)
	if p.PatternConfident(pc) {
		t.Fatal("penalty did not desaturate the counter")
	}
}

func TestYehPattGeometryValidation(t *testing.T) {
	for _, cfg := range []YehPattConfig{
		{Entries: 0, Ways: 8, HistBits: 11, CtrBits: 3},
		{Entries: 24, Ways: 8, HistBits: 11, CtrBits: 3},
		{Entries: 64, Ways: 8, HistBits: 1, CtrBits: 3},
		{Entries: 64, Ways: 8, HistBits: 11, CtrBits: 9},
	} {
		func() {
			defer func() { recover() }()
			NewYehPatt(cfg)
			t.Fatalf("config %+v accepted", cfg)
		}()
	}
}

func TestStorageBudget(t *testing.T) {
	p := NewYehPatt(YehPatt128())
	if kb := float64(p.StorageBits()) / 8192; kb < 0.5 || kb > 3 {
		t.Fatalf("storage %.2fKB out of the sub-8KB class", kb)
	}
	if p.Entries() != 128 {
		t.Fatal("Entries wrong")
	}
}

// TestYehPattRestoreReallocatesCold: a repair write for an evicted PC
// re-allocates the set's LRU way, and that way's retire-time history
// restarts from zero, so the PC is not predicted from the evicted PC's
// warm-up.
func TestYehPattRestoreReallocatesCold(t *testing.T) {
	p := NewYehPatt(YehPatt64()) // 8 sets × 8 ways
	base := uint64(0x400000)
	var pcs []uint64
	for pc := base; len(pcs) < 9; pc += 0x400 {
		if p.set(pc) == p.set(base) {
			pcs = append(pcs, pc)
		}
	}
	// Nine warm, all-taken PCs in one set: the ninth evicts the first.
	for _, pc := range pcs {
		p.Retire(pc, true, true)
		for i := 0; i < 20; i++ {
			p.Retire(pc, true, false)
		}
	}
	evicted := pcs[0]
	if _, ok := p.LookupState(evicted); ok {
		t.Fatal("the first PC was not evicted")
	}
	p.RestoreState(evicted, State{Count: 0x7ff, Valid: true})
	if _, ok := p.LookupState(evicted); !ok {
		t.Fatal("RestoreState did not re-allocate the evicted PC")
	}
	if pr := p.Predict(evicted); pr.Valid {
		t.Fatal("re-allocated entry predicted from the victim's warm-up")
	}
}
