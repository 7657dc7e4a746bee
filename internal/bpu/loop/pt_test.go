package loop

import "testing"

func TestPTAllocSetsRareDirection(t *testing.T) {
	pt := NewPatternTable(128, 8, 6, 2047)
	// Allocation happens on a misprediction; the mispredicted outcome is
	// the rare (exit) direction, so dir = !taken.
	pt.Train(0x400000, false, true) // mispredicted not-taken exit
	info := pt.Info(0x400000)
	if !info.Valid || !info.Dir {
		t.Fatalf("alloc after mispredicted N should set dir=T: %+v", info)
	}
}

func TestPTPeriodLearning(t *testing.T) {
	pt := NewPatternTable(128, 8, 6, 2047)
	pc := uint64(0x400000)
	pt.Train(pc, false, true) // allocate, dir=T
	for v := 0; v < 9; v++ {
		for i := 0; i < 14; i++ {
			pt.Train(pc, i < 13, false)
		}
	}
	info := pt.Info(pc)
	if info.Period != 14 {
		t.Fatalf("period %d, want 14", info.Period)
	}
	if info.Conf < 6 {
		t.Fatalf("confidence %d after 9 clean visits", info.Conf)
	}
	if !pt.Confident(pc) {
		t.Fatal("Confident() disagrees with Info")
	}
}

func TestPTConfidenceDropsOnPeriodChange(t *testing.T) {
	pt := NewPatternTable(128, 8, 6, 2047)
	pc := uint64(0x400000)
	pt.Train(pc, false, true)
	for v := 0; v < 10; v++ {
		for i := 0; i < 10; i++ {
			pt.Train(pc, i < 9, false)
		}
	}
	before := pt.Info(pc).Conf
	// One visit with a different trip count.
	for i := 0; i < 13; i++ {
		pt.Train(pc, i < 12, false)
	}
	after := pt.Info(pc).Conf
	if after >= before {
		t.Fatalf("period change did not drop confidence: %d -> %d", before, after)
	}
	if got := pt.Info(pc).Period; got != 13 {
		t.Fatalf("period not retrained: %d", got)
	}
}

func TestPTVictimPrefersLowConfidence(t *testing.T) {
	pt := NewPatternTable(8, 8, 6, 2047) // single set
	// Fill the set with 7 confident entries and one unconfident one.
	pcs := make([]uint64, 0, 8)
	for pc := uint64(0x400000); len(pcs) < 8; pc += 0x400 {
		if pt.set(pc) == pt.set(0x400000) {
			pcs = append(pcs, pc)
		}
	}
	for i, pc := range pcs {
		pt.Train(pc, false, true)
		if i == 0 {
			continue // leave pcs[0] unconfident
		}
		for v := 0; v < 9; v++ {
			for j := 0; j < 6; j++ {
				pt.Train(pc, j < 5, false)
			}
		}
	}
	// A newcomer must evict the unconfident entry, not a trained one.
	newPC := pcs[7] + 0x400*8 // same set, different tag
	for pt.set(newPC) != pt.set(pcs[0]) {
		newPC += 0x400
	}
	pt.Train(newPC, false, true)
	if pt.Info(newPC).Valid && pt.Info(pcs[1]).Valid == false {
		t.Fatal("a trained entry was evicted while an unconfident one survived")
	}
}

func TestPTConfidentVictimResists(t *testing.T) {
	pt := NewPatternTable(8, 8, 6, 2047)
	// Make every way confident and aged.
	pcs := make([]uint64, 0, 8)
	for pc := uint64(0x400000); len(pcs) < 8; pc += 0x400 {
		if pt.set(pc) == pt.set(0x400000) {
			pcs = append(pcs, pc)
		}
	}
	for _, pc := range pcs {
		pt.Train(pc, false, true)
		for v := 0; v < 12; v++ {
			for j := 0; j < 5; j++ {
				pt.Train(pc, j < 4, false)
			}
		}
	}
	var newPC uint64
	for newPC = pcs[7] + 0x400; pt.set(newPC) != pt.set(pcs[0]); newPC += 0x400 {
	}
	pt.Train(newPC, false, true) // first attempt only decays ages
	if pt.Info(newPC).Valid {
		t.Fatal("a confident aged set was displaced on the first attempt")
	}
}

func TestPTInfoMiss(t *testing.T) {
	pt := NewPatternTable(64, 8, 6, 2047)
	if pt.Info(0x123456).Valid {
		t.Fatal("Info on an empty PT returned a valid entry")
	}
	if pt.Confident(0x123456) {
		t.Fatal("Confident on an empty PT")
	}
}

func TestPTNoAllocWithoutMispredict(t *testing.T) {
	pt := NewPatternTable(64, 8, 6, 2047)
	pt.Train(0x400000, true, false) // correct prediction: no allocation
	if pt.Info(0x400000).Valid {
		t.Fatal("entry allocated without a misprediction")
	}
	if pt.Allocs() != 0 {
		t.Fatal("alloc counter advanced")
	}
}

func TestPTGeometryValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 8}, {65, 8}, {24, 8}} {
		func() {
			defer func() { recover() }()
			NewPatternTable(bad[0], bad[1], 6, 2047)
			t.Fatalf("geometry %v accepted", bad)
		}()
	}
}

func TestPTStorage(t *testing.T) {
	small := NewPatternTable(64, 8, 6, 2047).StorageBits()
	big := NewPatternTable(256, 8, 6, 2047).StorageBits()
	if big != 4*small {
		t.Fatalf("storage not proportional: %d vs %d", small, big)
	}
	if NewPatternTable(64, 8, 6, 2047).Entries() != 64 {
		t.Fatal("Entries() wrong")
	}
}

// TestPatternTableForDefaults pins the zero-value defaults New applies to
// the PT it builds: PTEntries 0 means Entries, and CounterMax 0 means 2047,
// so the PT still counts iterations and learns a period.
func TestPatternTableForDefaults(t *testing.T) {
	pt := NewPatternTableFor(Config{Entries: 64, Ways: 8, ConfThresh: 6})
	if pt.Entries() != 64 {
		t.Fatalf("PT entries %d, want 64", pt.Entries())
	}
	pc := uint64(0x400000)
	pt.Train(pc, false, true) // allocate: the not-taken exit is the rare direction
	for visit := 0; visit < 4; visit++ {
		for i := 0; i < 5; i++ {
			pt.Train(pc, i < 4, false)
		}
	}
	if info := pt.Info(pc); info.Period != 5 || !info.Dir {
		t.Fatalf("PT learned %+v, want period 5 taken", info)
	}
}
