package loop

import (
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
		p.Invalidate(pc)
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

// FuzzLoopPredictor feeds random branch streams through every mutating
// operation of both local predictors and asserts the whole-table
// snapshot/restore contract: RestoreBHT(snap) followed by DiffBHT(snap)
// is always zero, no operation sequence panics, and the predictor stays
// functional afterwards.
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
			snap := p.SnapshotBHT(nil)
			for _, b := range data {
				applyFuzzOp(p, b)
			}
			if n := p.RestoreBHT(snap); n < 0 || n > p.Entries() {
				t.Fatalf("%s: RestoreBHT changed %d entries, table holds %d", lp.name, n, p.Entries())
			}
			if d := p.DiffBHT(snap); d != 0 {
				t.Fatalf("%s: snapshot round-trip left %d entries differing", lp.name, d)
			}
			p.Predict(fuzzPC(0)) // still functional
		}
	})
}

// TestLoopSnapshotRoundTripProperty is the deterministic property-test
// counterpart of FuzzLoopPredictor: many seeded random op sequences, each
// asserting the restore round-trip, including restores from a mid-sequence
// snapshot (the perfect-repair usage pattern). Both predictors replay the
// same sequences.
func TestLoopSnapshotRoundTripProperty(t *testing.T) {
	for _, lp := range localPredictors {
		t.Run(lp.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 200; trial++ {
				p := lp.mk()
				// Warm the table so mid-sequence snapshots see live entries.
				for i := 0; i < rng.Intn(300); i++ {
					applyFuzzOp(p, byte(rng.Uint32()))
				}
				snap := p.SnapshotBHT(nil)
				for i := 0; i < 1+rng.Intn(200); i++ {
					applyFuzzOp(p, byte(rng.Uint32()))
				}
				p.RestoreBHT(snap)
				if d := p.DiffBHT(snap); d != 0 {
					t.Fatalf("trial %d: %d entries differ after restore", trial, d)
				}
			}
		})
	}
}

// TestLoopSnapshotGeometryMismatchPanics pins the documented contract that
// whole-table restores of the wrong geometry panic (a programming error, not
// a recoverable condition) rather than silently corrupting the table.
func TestLoopSnapshotGeometryMismatchPanics(t *testing.T) {
	for _, lp := range localPredictors {
		t.Run(lp.name, func(t *testing.T) {
			p := lp.mk()
			short := make([]FullState, p.Entries()-1)
			for name, fn := range map[string]func(){
				"RestoreBHT": func() { p.RestoreBHT(short) },
				"DiffBHT":    func() { p.DiffBHT(short) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s accepted a mismatched snapshot", name)
						}
					}()
					fn()
				}()
			}
		})
	}
}
