package loop

// ptEntry is one PT way: the learned period for a PC, trained at retirement.
type ptEntry struct {
	tag        uint16
	period     uint16
	trainCount uint16
	conf       uint8
	age        uint8
	dir        bool
	valid      bool
}

// PTInfo is the pattern-table view of one PC.
type PTInfo struct {
	Period uint16
	Conf   uint8
	Dir    bool
	Valid  bool
}

// PatternTable is the second level of the two-level design: the learned
// final iteration count (period), dominant direction and confidence per PC.
// It is trained non-speculatively at instruction retirement, so it needs no
// repair (paper §2.3). A PatternTable may be shared between two BHTs in the
// multi-stage split-BHT design (paper §3.2.1).
type PatternTable struct {
	geometry
	entries   []ptEntry
	statAlloc uint64

	counterMax uint16
	confThresh uint8
}

// NewPatternTable builds a PT with the given geometry.
func NewPatternTable(entries, ways int, confThresh uint8, counterMax uint16) *PatternTable {
	return &PatternTable{
		geometry:   newGeometry(entries, ways),
		entries:    make([]ptEntry, entries),
		counterMax: counterMax,
		confThresh: confThresh,
	}
}

// Entries returns the PT capacity.
func (t *PatternTable) Entries() int { return len(t.entries) }

// StorageBits approximates the PT storage budget.
func (t *PatternTable) StorageBits() int {
	return len(t.entries) * (8 + 11 + 11 + 3 + 8 + 1 + 1)
}

func (t *PatternTable) lookup(pc uint64) *ptEntry {
	base := t.set(pc) * t.ways
	tag := t.tagOf(pc)
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if e.valid && e.tag == tag {
			return e
		}
	}
	return nil
}

// Info returns the learned pattern for pc.
func (t *PatternTable) Info(pc uint64) PTInfo {
	e := t.lookup(pc)
	if e == nil {
		return PTInfo{}
	}
	return PTInfo{Period: e.period, Conf: e.conf, Dir: e.dir, Valid: true}
}

// Confident reports whether pc has a PT entry confident enough to override.
func (t *PatternTable) Confident(pc uint64) bool {
	e := t.lookup(pc)
	return e != nil && e.conf >= t.confThresh && e.period > 0
}

// Train updates the PT with the architectural outcome of pc; allocation is
// driven by final-prediction mispredictions (allocate reports whether the
// baseline predictor got this branch wrong).
func (t *PatternTable) Train(pc uint64, taken, allocate bool) {
	e := t.lookup(pc)
	if e == nil {
		if allocate {
			t.alloc(pc, taken)
		}
		return
	}
	if e.age < ageMax {
		e.age++
	}
	if taken == e.dir {
		if e.trainCount < t.counterMax {
			e.trainCount++
		}
		return
	}
	// Direction flip: one full period observed.
	observed := e.trainCount + 1
	if observed == 1 && e.period <= 1 {
		// Back-to-back flips with no learned period: the dominant
		// direction was mis-captured at allocation (the entry was
		// allocated on a misprediction of the *common* direction).
		// Re-polarize and relearn.
		e.dir = !e.dir
		e.period = 0
		e.conf = 0
		e.trainCount = 1
		return
	}
	if observed == e.period {
		if e.conf < confMax {
			e.conf++
		}
	} else {
		e.period = observed
		if e.conf >= 2 {
			e.conf -= 2
		} else {
			e.conf = 0
		}
	}
	e.trainCount = 0
}

func (t *PatternTable) alloc(pc uint64, taken bool) {
	base := t.set(pc) * t.ways
	var victim *ptEntry
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if !e.valid {
			victim = e
			break
		}
		if victim == nil || e.conf < victim.conf ||
			(e.conf == victim.conf && e.age < victim.age) {
			victim = e
		}
	}
	// Do not evict a confident, recently useful entry for a newcomer.
	if victim.valid && victim.conf >= t.confThresh && victim.age > 16 {
		victim.age /= 2
		return
	}
	*victim = ptEntry{
		tag:   t.tagOf(pc),
		dir:   !taken, // the mispredicted outcome is the rare (exit) direction
		valid: true,
	}
	t.statAlloc++
}

// Penalize lowers the confidence of pc's entry after a wrong override:
// a PC whose speculative state proved untrustworthy stops overriding until
// retire-time training rebuilds confidence. This localizes the damage of
// unrepaired state to the affected PC.
func (t *PatternTable) Penalize(pc uint64) {
	if e := t.lookup(pc); e != nil {
		if e.conf >= 2 {
			e.conf -= 2
		} else {
			e.conf = 0
		}
	}
}

// Allocs returns the number of PT allocations performed.
func (t *PatternTable) Allocs() uint64 { return t.statAlloc }
