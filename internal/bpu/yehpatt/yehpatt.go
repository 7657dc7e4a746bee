// Package yehpatt implements a generic two-level local branch predictor in
// the style of Yeh and Patt [MICRO'91]: a set-associative Branch History
// Table tracks the recent per-PC direction history (a bit pattern), and a
// shared pattern table of saturating counters predicts the next direction
// for each observed pattern.
//
// The paper's repair techniques are defined over any local predictor —
// "for the generic local predictors, the state is a sequence of bit-patterns
// while for the loop predictor the state is a counter" (§1). This package
// demonstrates that claim: it implements loop.LocalPredictor, so every
// scheme in internal/repair (perfect, walks, snapshot, limited-PC, …)
// manages it unchanged. The speculative bit pattern rides in
// loop.State.Count, exactly as the paper's 11-bit pattern rides through the
// pipeline.
package yehpatt

import (
	"fmt"

	"localbp/internal/bpu/loop"
)

// Config sizes a generic local predictor.
type Config struct {
	Name     string
	Entries  int // BHT entries
	Ways     int
	HistBits int // local history length (the per-PC pattern width)
	// CtrBits sizes the pattern-table counters (3 recommended).
	CtrBits int
}

// Default128 mirrors CBPw-Loop128's footprint: 128 BHT entries, 11-bit
// local history, a 2K-entry pattern table of 3-bit counters.
func Default128() Config {
	return Config{Name: "YehPatt128", Entries: 128, Ways: 8, HistBits: 11, CtrBits: 3}
}

// Default64 halves the BHT.
func Default64() Config {
	return Config{Name: "YehPatt64", Entries: 64, Ways: 8, HistBits: 11, CtrBits: 3}
}

type bhtEntry struct {
	tag   uint16
	hist  uint16 // speculative local history, low bit most recent
	rhist uint16 // retire-time history (training view, non-speculative)
	warm  uint8  // retired outcomes observed (gates early predictions)
	lru   uint8
	alloc bool
	valid bool
}

// Predictor is a Yeh-Patt style two-level local predictor.
type Predictor struct {
	cfg      Config
	sets     int
	setMask  uint64
	histMask uint16
	bht      []bhtEntry
	pt       []uint8 // saturating counters indexed by pattern
	ctrMax   uint8
	ctrMid   uint8

	repairGen   uint32
	repairStamp []uint32
}

var _ loop.LocalPredictor = (*Predictor)(nil)

// New builds a predictor from cfg.
func New(cfg Config) *Predictor {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("yehpatt: bad geometry %d/%d", cfg.Entries, cfg.Ways))
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		panic("yehpatt: set count must be a power of two")
	}
	if cfg.HistBits < 2 || cfg.HistBits > 16 {
		panic("yehpatt: HistBits out of range")
	}
	if cfg.CtrBits < 2 || cfg.CtrBits > 5 {
		panic("yehpatt: CtrBits out of range")
	}
	p := &Predictor{
		cfg:         cfg,
		sets:        sets,
		setMask:     uint64(sets - 1),
		histMask:    uint16(1)<<cfg.HistBits - 1,
		bht:         make([]bhtEntry, cfg.Entries),
		pt:          make([]uint8, 1<<cfg.HistBits),
		ctrMax:      uint8(1)<<cfg.CtrBits - 1,
		repairGen:   1,
		repairStamp: make([]uint32, cfg.Entries),
	}
	p.ctrMid = (p.ctrMax + 1) / 2
	for i := range p.pt {
		p.pt[i] = p.ctrMid - 1 // weakly not-taken
	}
	for s := 0; s < sets; s++ {
		for w := 0; w < cfg.Ways; w++ {
			p.bht[s*cfg.Ways+w].lru = uint8(w)
		}
	}
	return p
}

func pcHash(pc uint64) uint64 {
	v := pc >> 2
	return v ^ (v >> 5) ^ (v >> 11) ^ (v >> 17)
}

func (p *Predictor) set(pc uint64) int { return int(pcHash(pc) & p.setMask) }
func (p *Predictor) tagOf(pc uint64) uint16 {
	h := pcHash(pc)
	return uint16((h>>uint(log2(p.sets)))^(h>>13)) & 0xff
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

func (p *Predictor) lookup(pc uint64) int {
	base := p.set(pc) * p.cfg.Ways
	tag := p.tagOf(pc)
	for w := 0; w < p.cfg.Ways; w++ {
		e := &p.bht[base+w]
		if e.alloc && e.tag == tag {
			return base + w
		}
	}
	return -1
}

func (p *Predictor) touchLRU(idx int) {
	base := idx / p.cfg.Ways * p.cfg.Ways
	old := p.bht[idx].lru
	for w := 0; w < p.cfg.Ways; w++ {
		if e := &p.bht[base+w]; e.lru < old {
			e.lru++
		}
	}
	p.bht[idx].lru = 0
}

func (p *Predictor) victim(pc uint64) int {
	base := p.set(pc) * p.cfg.Ways
	v := base
	for w := 0; w < p.cfg.Ways; w++ {
		e := &p.bht[base+w]
		if !e.alloc {
			return base + w
		}
		if e.lru > p.bht[v].lru {
			v = base + w
		}
	}
	return v
}

// confident reports whether the counter is saturated enough to override.
func (p *Predictor) confident(ctr uint8) bool {
	return ctr == 0 || ctr == p.ctrMax
}

// Predict implements loop.LocalPredictor.
func (p *Predictor) Predict(pc uint64) loop.Prediction {
	i := p.lookup(pc)
	if i < 0 {
		return loop.Prediction{}
	}
	e := &p.bht[i]
	if !e.valid || int(e.warm) < p.cfg.HistBits {
		return loop.Prediction{}
	}
	ctr := p.pt[e.hist&p.histMask]
	if !p.confident(ctr) {
		return loop.Prediction{}
	}
	return loop.Prediction{Taken: ctr >= p.ctrMid, Valid: true}
}

// PredictWithOffset implements loop.LocalPredictor. A bit pattern cannot be
// advanced without knowing the in-flight directions, so the offset is
// ignored: update-at-retire integrations simply see the stale pattern, which
// is precisely the weakness the paper ascribes to that scheme.
func (p *Predictor) PredictWithOffset(pc uint64, _ uint16) loop.Prediction {
	return p.Predict(pc)
}

// LookupState implements loop.LocalPredictor: the bit pattern travels in
// State.Count.
func (p *Predictor) LookupState(pc uint64) (loop.State, bool) {
	i := p.lookup(pc)
	if i < 0 {
		return loop.State{}, false
	}
	e := &p.bht[i]
	return loop.State{Count: e.hist, Valid: e.valid}, true
}

// SpecUpdate implements loop.LocalPredictor: shift the predicted direction
// into the speculative history.
func (p *Predictor) SpecUpdate(pc uint64, d bool) bool {
	i := p.lookup(pc)
	if i < 0 {
		return false // allocation happens at retire, where training lives
	}
	e := &p.bht[i]
	e.hist = (e.hist << 1) & p.histMask
	if d {
		e.hist |= 1
	}
	p.touchLRU(i)
	return false
}

// RestoreState implements loop.LocalPredictor (repair write).
func (p *Predictor) RestoreState(pc uint64, st loop.State) {
	i := p.lookup(pc)
	if i < 0 {
		i = p.victim(pc)
		p.bht[i] = bhtEntry{tag: p.tagOf(pc), alloc: true, lru: p.bht[i].lru}
	}
	e := &p.bht[i]
	e.hist = st.Count & p.histMask
	e.valid = st.Valid
	p.repairStamp[i] = p.repairGen
}

// ApplyOutcome implements loop.LocalPredictor.
func (p *Predictor) ApplyOutcome(pc uint64, taken bool) {
	i := p.lookup(pc)
	if i < 0 {
		return
	}
	e := &p.bht[i]
	e.hist = (e.hist << 1) & p.histMask
	if taken {
		e.hist |= 1
	}
	e.valid = true
	p.repairStamp[i] = p.repairGen
}

// Invalidate implements loop.LocalPredictor.
func (p *Predictor) Invalidate(pc uint64) {
	if i := p.lookup(pc); i >= 0 {
		p.bht[i].valid = false
	}
}

// InvalidateAll implements loop.LocalPredictor.
func (p *Predictor) InvalidateAll() {
	for i := range p.bht {
		p.bht[i].valid = false
	}
}

// Retire implements loop.LocalPredictor: train the pattern table with the
// retire-time history (non-speculative), allocate on final mispredictions,
// and re-synchronize the speculative history when it has gone invalid — at
// retire the architectural history is known exactly.
func (p *Predictor) Retire(pc uint64, taken, finalMispredicted bool) {
	i := p.lookup(pc)
	if i < 0 {
		if !finalMispredicted {
			return
		}
		i = p.victim(pc)
		p.bht[i] = bhtEntry{tag: p.tagOf(pc), alloc: true, valid: true, lru: p.bht[i].lru}
		p.repairStamp[i] = p.repairGen
		p.touchLRU(i)
	}
	e := &p.bht[i]
	// Train the counter for the pre-outcome retired pattern.
	if int(e.warm) >= p.cfg.HistBits {
		idx := e.rhist & p.histMask
		if taken {
			if p.pt[idx] < p.ctrMax {
				p.pt[idx]++
			}
		} else if p.pt[idx] > 0 {
			p.pt[idx]--
		}
	}
	e.rhist = (e.rhist << 1) & p.histMask
	if taken {
		e.rhist |= 1
	}
	if int(e.warm) < p.cfg.HistBits {
		e.warm++
	}
	if !e.valid {
		// The speculative view is stale (skipped updates, unrepaired
		// flushes); at retirement the true history is rhist, modulo the
		// in-flight instances. Adopting it re-validates the entry with
		// bounded error, like the loop predictor's flip re-sync.
		e.hist = e.rhist
		e.valid = true
	}
}

// PatternInfo implements loop.LocalPredictor: a bit-pattern predictor has no
// period/dominant-direction notion, so the zero value is returned.
func (p *Predictor) PatternInfo(uint64) loop.PTInfo { return loop.PTInfo{} }

// PatternConfident implements loop.LocalPredictor.
func (p *Predictor) PatternConfident(pc uint64) bool {
	i := p.lookup(pc)
	if i < 0 {
		return false
	}
	e := &p.bht[i]
	return e.valid && int(e.warm) >= p.cfg.HistBits && p.confident(p.pt[e.hist&p.histMask])
}

// PenalizeOverride implements loop.LocalPredictor: weaken the counter that
// drove the wrong override.
func (p *Predictor) PenalizeOverride(pc uint64) {
	i := p.lookup(pc)
	if i < 0 {
		return
	}
	idx := p.bht[i].hist & p.histMask
	switch ctr := p.pt[idx]; {
	case ctr == p.ctrMax:
		p.pt[idx] = ctr - 1
	case ctr == 0:
		p.pt[idx] = 1
	}
}

// RepairStart implements loop.LocalPredictor.
func (p *Predictor) RepairStart() { p.repairGen++ }

// RepairBitSet implements loop.LocalPredictor.
func (p *Predictor) RepairBitSet(pc uint64) bool {
	i := p.lookup(pc)
	if i < 0 {
		return true
	}
	return p.repairStamp[i] != p.repairGen
}

// SnapshotBHT implements loop.LocalPredictor.
func (p *Predictor) SnapshotBHT(dst []loop.FullState) []loop.FullState {
	if cap(dst) < len(p.bht) {
		dst = make([]loop.FullState, len(p.bht))
	}
	dst = dst[:len(p.bht)]
	for i := range p.bht {
		e := &p.bht[i]
		dst[i] = loop.FullState{Tag: e.tag, Count: e.hist, LRU: e.lru,
			Alloc: e.alloc, Valid: e.valid}
	}
	return dst
}

// RestoreBHT implements loop.LocalPredictor. Only the speculative fields
// (pattern, valid, allocation) restore; the training view (rhist/warm) is
// non-speculative and keeps its current value.
func (p *Predictor) RestoreBHT(snap []loop.FullState) int {
	if len(snap) != len(p.bht) {
		panic("yehpatt: snapshot geometry mismatch")
	}
	changed := 0
	for i := range p.bht {
		e := &p.bht[i]
		if e.hist != snap[i].Count || e.valid != snap[i].Valid ||
			e.alloc != snap[i].Alloc || e.tag != snap[i].Tag {
			changed++
			p.repairStamp[i] = p.repairGen
		}
		e.tag = snap[i].Tag
		e.hist = snap[i].Count
		e.lru = snap[i].LRU
		e.alloc = snap[i].Alloc
		e.valid = snap[i].Valid
	}
	return changed
}

// DiffBHT implements loop.LocalPredictor.
func (p *Predictor) DiffBHT(snap []loop.FullState) int {
	if len(snap) != len(p.bht) {
		panic("yehpatt: snapshot geometry mismatch")
	}
	n := 0
	for i := range p.bht {
		e := &p.bht[i]
		if e.hist != snap[i].Count || e.valid != snap[i].Valid ||
			e.alloc != snap[i].Alloc || e.tag != snap[i].Tag {
			n++
		}
	}
	return n
}

// Entries implements loop.LocalPredictor.
func (p *Predictor) Entries() int { return p.cfg.Entries }

// BHTStorageBits implements loop.LocalPredictor: tag + two histories + warm
// counter + bookkeeping bits per entry.
func (p *Predictor) BHTStorageBits() int {
	return p.cfg.Entries * (8 + 2*p.cfg.HistBits + 4 + 3 + 2)
}

// StorageBits implements loop.LocalPredictor.
func (p *Predictor) StorageBits() int {
	return p.BHTStorageBits() + len(p.pt)*p.cfg.CtrBits
}
