package loop

import (
	"slices"
	"testing"
	"testing/quick"
)

// trainLoop drives pc through `visits` complete loop visits of period P
// (P-1 taken then one not-taken), simulating a baseline that mispredicts
// every exit (so PT allocation and BHT retire-sync both fire).
func trainLoop(p *Predictor, pc uint64, period, visits int) {
	for v := 0; v < visits; v++ {
		for i := 0; i < period; i++ {
			taken := i < period-1
			pred := p.Predict(pc)
			d := taken // baseline predicts the common direction (taken)
			if pred.Valid {
				d = pred.Taken
			} else if !taken {
				d = true // baseline mispredicts the exit
			}
			p.SpecUpdate(pc, d)
			misp := d != taken
			if misp {
				// Resolve-time repair: restore semantics are exercised
				// by the repair package; here apply the outcome.
				p.ApplyOutcome(pc, taken)
			}
			p.Retire(pc, taken, misp)
		}
	}
}

func TestLearnsBackwardLoop(t *testing.T) {
	p := New(Loop128())
	pc := uint64(0x400000)
	trainLoop(p, pc, 12, 10)
	info := p.PT().Info(pc)
	if !info.Valid || info.Period != 12 || !info.Dir {
		t.Fatalf("PT did not learn TTTN period 12: %+v", info)
	}
	if info.Conf < p.Config().ConfThresh {
		t.Fatalf("confidence %d below threshold", info.Conf)
	}
	// After training, the predictor must call every iteration correctly.
	correct, total := 0, 0
	for v := 0; v < 5; v++ {
		for i := 0; i < 12; i++ {
			taken := i < 11
			pred := p.Predict(pc)
			if !pred.Valid {
				t.Fatalf("no prediction at visit %d iter %d", v, i)
			}
			total++
			if pred.Taken == taken {
				correct++
			}
			p.SpecUpdate(pc, pred.Taken)
		}
	}
	if correct != total {
		t.Fatalf("trained loop predicted %d/%d", correct, total)
	}
}

func TestLearnsForwardConditional(t *testing.T) {
	// NNN...T with period 8: dominant direction not-taken.
	p := New(Loop128())
	pc := uint64(0x400400)
	for v := 0; v < 12; v++ {
		for i := 0; i < 8; i++ {
			taken := i == 7
			pred := p.Predict(pc)
			d := !taken
			if pred.Valid {
				d = pred.Taken
			} else if taken {
				d = false
			}
			p.SpecUpdate(pc, d)
			misp := d != taken
			if misp {
				p.ApplyOutcome(pc, taken)
			}
			p.Retire(pc, taken, misp)
		}
	}
	info := p.PT().Info(pc)
	if !info.Valid || info.Period != 8 || info.Dir {
		t.Fatalf("PT did not learn NNNT period 8: %+v", info)
	}
	pred := p.Predict(pc)
	if !pred.Valid {
		t.Fatal("no prediction after training")
	}
}

func TestRepolarization(t *testing.T) {
	// Allocate the PT entry with the wrong dominant direction (as happens
	// when the baseline mispredicts a taken iteration), then train on a
	// TTTN loop: the entry must re-polarize and still learn.
	p := New(Loop128())
	pc := uint64(0x400800)
	p.PT().Train(pc, true, true) // alloc with dir = !taken = false (wrong)
	trainLoop(p, pc, 10, 12)
	info := p.PT().Info(pc)
	if !info.Dir || info.Period != 10 {
		t.Fatalf("entry did not re-polarize: %+v", info)
	}
}

func TestSpecUpdateCounts(t *testing.T) {
	p := New(Loop128())
	pc := uint64(0x400000)
	trainLoop(p, pc, 20, 8)
	st, ok := p.LookupState(pc)
	if !ok {
		t.Fatal("no BHT state after training")
	}
	base := st.Count
	p.SpecUpdate(pc, true)
	st2, _ := p.LookupState(pc)
	if st2.Count != base+1 {
		t.Fatalf("count %d after update, want %d", st2.Count, base+1)
	}
	p.SpecUpdate(pc, false) // flip resets
	st3, _ := p.LookupState(pc)
	if st3.Count != 0 || !st3.Valid {
		t.Fatalf("flip should reset count and validate: %+v", st3)
	}
}

func TestRestoreState(t *testing.T) {
	p := New(Loop128())
	pc := uint64(0x400000)
	trainLoop(p, pc, 20, 8)
	st, _ := p.LookupState(pc)
	for i := 0; i < 5; i++ {
		p.SpecUpdate(pc, true) // corrupt with speculative updates
	}
	p.RestoreState(pc, st)
	got, _ := p.LookupState(pc)
	if got != st {
		t.Fatalf("restore mismatch: got %+v want %+v", got, st)
	}
}

func TestRestoreStateReallocatesEvicted(t *testing.T) {
	p := New(Loop64())
	pc := uint64(0x400000)
	st := State{Count: 7, Dir: true, Valid: true}
	p.RestoreState(pc, st) // PC never seen: must allocate
	got, ok := p.LookupState(pc)
	if !ok || got != st {
		t.Fatalf("restore into empty BHT failed: %+v ok=%v", got, ok)
	}
}

func TestInvalidateAndFlipRevalidation(t *testing.T) {
	p := New(Loop128())
	pc := uint64(0x400000)
	trainLoop(p, pc, 10, 10)
	p.Invalidate(pc)
	if pr := p.Predict(pc); pr.Valid {
		t.Fatal("invalidated entry still predicts")
	}
	p.SpecUpdate(pc, false) // direction flip re-synchronizes
	st, _ := p.LookupState(pc)
	if !st.Valid || st.Count != 0 {
		t.Fatalf("flip did not revalidate: %+v", st)
	}
}

func TestPredictGatedOnConfidence(t *testing.T) {
	p := New(Loop128())
	pc := uint64(0x400000)
	trainLoop(p, pc, 9, 2) // too few visits to build confidence
	if info := p.PT().Info(pc); info.Conf >= p.Config().ConfThresh {
		t.Skip("confidence built faster than expected")
	}
	if pr := p.Predict(pc); pr.Valid {
		t.Fatal("low-confidence entry must not predict")
	}
}

func TestPredictWithOffset(t *testing.T) {
	p := New(Loop128())
	pc := uint64(0x400000)
	trainLoop(p, pc, 10, 12)
	// Reset the counter to a known point: restore count=5.
	p.RestoreState(pc, State{Count: 5, Dir: true, Valid: true})
	if pr := p.PredictWithOffset(pc, 0); !pr.Valid || !pr.Taken {
		t.Fatalf("count 5/10 should predict taken: %+v", pr)
	}
	if pr := p.PredictWithOffset(pc, 4); !pr.Valid || pr.Taken {
		t.Fatalf("count 5+4 = 9 → exit: %+v", pr)
	}
	// Offset wrapping past the period restarts the run.
	if pr := p.PredictWithOffset(pc, 5); !pr.Valid || !pr.Taken {
		t.Fatalf("count 5+5 wraps to 0 → taken: %+v", pr)
	}
}

func TestPenalize(t *testing.T) {
	p := New(Loop128())
	pc := uint64(0x400000)
	trainLoop(p, pc, 10, 12)
	before := p.PT().Info(pc).Conf
	p.PT().Penalize(pc)
	after := p.PT().Info(pc).Conf
	if after >= before {
		t.Fatalf("Penalize did not lower confidence: %d -> %d", before, after)
	}
}

func TestRepairBits(t *testing.T) {
	p := New(Loop128())
	pc := uint64(0x400000)
	trainLoop(p, pc, 10, 10)
	p.RepairStart()
	if !p.RepairBitSet(pc) {
		t.Fatal("repair bit should be set after RepairStart")
	}
	p.RestoreState(pc, State{Count: 1, Dir: true, Valid: true})
	if p.RepairBitSet(pc) {
		t.Fatal("repair bit should clear after the first write")
	}
	p.RepairStart()
	if !p.RepairBitSet(pc) {
		t.Fatal("a new repair must re-arm the bit")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := New(Loop128())
	for i := 0; i < 20; i++ {
		trainLoop(p, uint64(0x400000+i*0x400), 5+i, 3)
	}
	m := p.Mark()
	saved := append([]bhtEntry(nil), p.entries...)
	if p.DiffSince(m) != 0 {
		t.Fatal("fresh mark differs from live state")
	}
	// Corrupt, then roll back.
	for i := 0; i < 10; i++ {
		p.SpecUpdate(uint64(0x400000+i*0x400), true)
	}
	if p.DiffSince(m) == 0 {
		t.Fatal("corruption not visible in diff")
	}
	changed := p.Rollback(m)
	if changed == 0 {
		t.Fatal("rollback reported no writes")
	}
	if p.DiffSince(m) != 0 || !slices.Equal(p.entries, saved) {
		t.Fatal("rollback did not reproduce the marked table, LRU ranks included")
	}
}

func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		p := New(Loop64())
		r := newTestRand(seed)
		// Random training activity.
		for i := 0; i < int(ops); i++ {
			pc := uint64(0x400000 + (r.next()%24)*0x400)
			p.Retire(pc, r.next()%3 == 0, true)
			p.SpecUpdate(pc, r.next()%2 == 0)
		}
		m := p.Mark()
		saved := append([]bhtEntry(nil), p.entries...)
		for i := 0; i < int(ops); i++ {
			pc := uint64(0x400000 + (r.next()%24)*0x400)
			p.SpecUpdate(pc, r.next()%2 == 0)
			p.Retire(pc, r.next()%3 == 0, true)
		}
		p.Rollback(m)
		return slices.Equal(p.entries, saved) && p.DiffSince(m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

type testRand struct{ s uint64 }

func newTestRand(seed int64) *testRand { return &testRand{uint64(seed)*2654435761 + 1} }
func (t *testRand) next() uint64 {
	t.s = t.s*6364136223846793005 + 1442695040888963407
	return t.s >> 33
}

func TestBHTEviction(t *testing.T) {
	p := New(Loop64()) // 8 sets × 8 ways
	// Train more same-set PCs than ways: older ones must be evicted
	// without corrupting the newer ones.
	var pcs []uint64
	base := uint64(0x400000)
	set0 := p.set(base)
	for pc := base; len(pcs) < 12; pc += 0x400 {
		if p.set(pc) == set0 {
			pcs = append(pcs, pc)
		}
	}
	for _, pc := range pcs {
		trainLoop(p, pc, 6, 10)
	}
	live := 0
	for _, pc := range pcs {
		if _, ok := p.LookupState(pc); ok {
			live++
		}
	}
	if live == 0 || live > 8 {
		t.Fatalf("set holds %d live entries, want 1..8", live)
	}
}

func TestSharedPatternTable(t *testing.T) {
	pt := NewPatternTable(128, 8, 6, 2047)
	a := NewWithPT(Config{Name: "a", Entries: 64, Ways: 8, ConfThresh: 6, CounterMax: 2047}, pt)
	b := NewWithPT(Config{Name: "b", Entries: 64, Ways: 8, ConfThresh: 6, CounterMax: 2047}, pt)
	pc := uint64(0x400000)
	trainLoop(a, pc, 10, 12)
	// b shares the PT, so it should see the learned pattern even though
	// its own BHT has no entry yet.
	if info := b.PT().Info(pc); !info.Valid || info.Period != 10 {
		t.Fatalf("shared PT not visible from second BHT: %+v", info)
	}
}

func TestStorageBudgets(t *testing.T) {
	small := New(Loop64()).StorageBits()
	mid := New(Loop128()).StorageBits()
	big := New(Loop256()).StorageBits()
	if !(small < mid && mid < big) {
		t.Fatalf("storage not monotonic: %d %d %d", small, mid, big)
	}
	// Loop128's total should be in the ~0.8KB class the paper charges.
	if kb := float64(mid) / 8192; kb < 0.4 || kb > 2.0 {
		t.Fatalf("Loop128 storage %.2fKB out of class", kb)
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 0, Ways: 8},
		{Entries: 65, Ways: 8},
		{Entries: 24, Ways: 8}, // 3 sets: not a power of two
	} {
		func() {
			defer func() { recover() }()
			New(cfg)
			t.Fatalf("config %+v did not panic", cfg)
		}()
	}
}
