package loop

import (
	"fmt"
	"math/rand"
	"testing"
)

// fuzzPC maps a byte to one of 16 branch PCs, giving the fuzzer a pool small
// enough to collide in BHT sets (evictions, tag mismatches) but large enough
// to exercise the LRU machinery.
func fuzzPC(b byte) uint64 { return 0x400000 + uint64(b%16)*64 }

// applyFuzzOp drives one LocalPredictor operation from a byte. The decoding
// covers every mutating entry point of the interface.
func applyFuzzOp(p LocalPredictor, b byte) {
	pc := fuzzPC(b)
	taken := b&0x80 != 0
	switch (b >> 4) & 0x7 {
	case 0:
		p.Predict(pc)
	case 1:
		p.PredictWithOffset(pc, uint16(b&3))
	case 2:
		p.SpecUpdate(pc, taken)
	case 3:
		p.ApplyOutcome(pc, taken)
	case 4:
		if st, ok := p.LookupState(pc); ok {
			p.RestoreState(pc, st)
		}
	case 5:
		p.Retire(pc, taken, b&1 == 1)
	case 6:
		if b&1 == 0 {
			p.Invalidate(pc)
		} else {
			p.InvalidateAll()
		}
	case 7:
		p.RepairStart()
		p.RepairBitSet(pc)
	}
}

// localPredictors lists both users of the shared BHT; every op sequence
// below runs through each of them.
var localPredictors = []struct {
	name string
	mk   func() LocalPredictor
}{
	{"Loop128", func() LocalPredictor { return New(Loop128()) }},
	{"YehPatt128", func() LocalPredictor { return NewYehPatt(YehPatt128()) }},
}

// tableOf returns the speculative table a local predictor embeds.
func tableOf(p LocalPredictor) *bht {
	switch p := p.(type) {
	case *Predictor:
		return &p.bht
	case *YehPatt:
		return &p.bht
	}
	panic("unknown local predictor")
}

// savedMark is a live journal mark with a copy of the table taken at it.
type savedMark struct {
	m       int64
	entries []bhtEntry
}

// checkJournal drives p with the byte stream next yields for n steps,
// interleaving predictor operations with undo-journal operations: nested
// marks, releases of a random prefix of the live marks and rollbacks to a
// random live mark. Every rollback must restore each entry field for field,
// LRU rank included, from a copy saved at the mark, and Rollback and
// DiffSince must both return the number of entries whose predictive state
// differs from that copy. It returns a description of the first violation.
func checkJournal(p LocalPredictor, next func() byte, n int) string {
	b := tableOf(p)
	var marks []savedMark
	for step := 0; step < n; step++ {
		switch c := next(); c % 8 {
		case 0:
			marks = append(marks, savedMark{p.Mark(), append([]bhtEntry(nil), b.entries...)})
		case 1:
			if len(marks) == 0 {
				continue
			}
			k := int(next()) % len(marks)
			saved := marks[k].entries
			changed := differing(b, saved)
			if d := p.DiffSince(marks[k].m); d != len(changed) {
				return fmt.Sprintf("step %d: DiffSince = %d, %d entries differ", step, d, len(changed))
			}
			if got := p.Rollback(marks[k].m); got != len(changed) {
				return fmt.Sprintf("step %d: Rollback = %d, %d entries differed", step, got, len(changed))
			}
			for i, e := range saved {
				if b.entries[i] != e {
					return fmt.Sprintf("step %d: entry %d is %+v after rollback, %+v at the mark", step, i, b.entries[i], e)
				}
			}
			for _, i := range changed {
				if b.repairStamp[i] != b.repairGen {
					return fmt.Sprintf("step %d: rolled-back entry %d kept its repair bit", step, i)
				}
			}
			marks = marks[:k+1] // younger marks were rolled past
		case 2:
			if len(marks) == 0 {
				continue
			}
			k := int(next()) % len(marks)
			p.Release(marks[k].m)
			marks = marks[k:]
		default:
			applyFuzzOp(p, next())
		}
	}
	for _, sm := range marks {
		if d, want := p.DiffSince(sm.m), len(differing(b, sm.entries)); d != want {
			return fmt.Sprintf("end: DiffSince = %d, %d entries differ", d, want)
		}
	}
	return ""
}

// differing lists the entries of b whose predictive state differs from
// saved, a copy of its entries.
func differing(b *bht, saved []bhtEntry) []int {
	var idx []int
	for i := range saved {
		if differs(&b.entries[i], &saved[i]) {
			idx = append(idx, i)
		}
	}
	return idx
}

// FuzzLoopPredictor feeds random branch streams through every mutating
// operation of both local predictors, interleaved with nested journal
// marks, releases and rollbacks, and asserts the journal contract of
// checkJournal; no sequence may panic, and the predictor stays functional
// afterwards.
func FuzzLoopPredictor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x21, 0x42, 0x63, 0x84, 0xa5, 0xc6, 0xe7})
	f.Add([]byte{0x2f, 0x2f, 0x2f, 0xaf, 0xaf, 0x3f, 0xbf, 0x5f})
	seq := make([]byte, 128)
	for i := range seq {
		seq[i] = byte(i * 37)
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		for _, lp := range localPredictors {
			p := lp.mk()
			i := 0
			next := func() byte {
				if i >= len(data) {
					return 0
				}
				i++
				return data[i-1]
			}
			if msg := checkJournal(p, next, len(data)); msg != "" {
				t.Fatalf("%s: %s", lp.name, msg)
			}
			p.Predict(fuzzPC(0)) // still functional
		}
	})
}

// TestLoopSnapshotRoundTripProperty is the deterministic property-test
// counterpart of FuzzLoopPredictor: many seeded random streams of
// predictor and journal operations, each checked by checkJournal. Both
// predictors replay the same streams.
func TestLoopSnapshotRoundTripProperty(t *testing.T) {
	for _, lp := range localPredictors {
		t.Run(lp.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			next := func() byte { return byte(rng.Uint32()) }
			for trial := 0; trial < 3000; trial++ {
				p := lp.mk()
				// Warm the table so marks see live entries.
				for i := 0; i < rng.Intn(300); i++ {
					applyFuzzOp(p, next())
				}
				if msg := checkJournal(p, next, 400); msg != "" {
					t.Fatalf("trial %d: %s", trial, msg)
				}
			}
		})
	}
}

// TestLoopDeadMarkPanics pins the documented contract that a released or
// rolled-past journal mark panics (a programming error, not a recoverable
// condition) rather than silently restoring the wrong table.
func TestLoopDeadMarkPanics(t *testing.T) {
	for _, lp := range localPredictors {
		t.Run(lp.name, func(t *testing.T) {
			p := lp.mk()
			write := func(n uint16) { p.RestoreState(fuzzPC(1), State{Count: n, Valid: true}) }
			released := p.Mark()
			write(1)
			live := p.Mark()
			write(2)
			p.Release(live)
			rolledPast := p.Mark()
			write(3)
			if n := p.Rollback(live); n != 1 {
				t.Fatalf("rollback to the live mark changed %d entries, want 1", n)
			}
			for name, fn := range map[string]func(){
				"Rollback(released)":     func() { p.Rollback(released) },
				"DiffSince(released)":    func() { p.DiffSince(released) },
				"Release(released)":      func() { p.Release(released) },
				"Rollback(rolled-past)":  func() { p.Rollback(rolledPast) },
				"DiffSince(rolled-past)": func() { p.DiffSince(rolledPast) },
				"Release(rolled-past)":   func() { p.Release(rolledPast) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s accepted a dead mark", name)
						}
					}()
					fn()
				}()
			}
			if n := p.DiffSince(live); n != 0 {
				t.Fatalf("the live mark reports %d changed entries after its rollback", n)
			}
		})
	}
}
