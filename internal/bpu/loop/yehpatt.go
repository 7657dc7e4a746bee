package loop

import "fmt"

// YehPatt is a generic two-level local branch predictor in the style of Yeh
// and Patt [MICRO'91]: the shared BHT tracks the recent per-PC direction
// history (a bit pattern), and a pattern table of saturating counters
// predicts the next direction for each observed pattern.
//
// The paper's repair techniques are defined over any local predictor —
// "for the generic local predictors, the state is a sequence of bit-patterns
// while for the loop predictor the state is a counter" (§1). YehPatt
// demonstrates that claim: it implements LocalPredictor, so every scheme in
// internal/repair (perfect, walks, snapshot, limited-PC, …) manages it
// unchanged. The speculative bit pattern rides in the BHT entry's count,
// and so in State.Count, exactly as the paper's 11-bit pattern rides
// through the pipeline; the entry's dir stays false.
type YehPatt struct {
	bht
	cfg      YehPattConfig
	histMask uint16
	// retired is each BHT way's non-speculative training view. It lives
	// outside the undo journal, so a Rollback leaves it alone; a way
	// re-allocated for a new PC starts it from zero.
	retired []retireView
	ctrs    []uint8 // pattern table: saturating counters indexed by pattern
	ctrMax  uint8
	ctrMid  uint8
}

// retireView is one BHT way's retire-time history.
type retireView struct {
	rhist uint16 // retired outcomes, low bit most recent
	warm  uint8  // retired outcomes observed (gates early predictions)
}

// YehPattConfig sizes a generic local predictor.
type YehPattConfig struct {
	Name     string
	Entries  int // BHT entries
	Ways     int
	HistBits int // local history length (the per-PC pattern width)
	// CtrBits sizes the pattern-table counters (3 recommended).
	CtrBits int
}

// YehPatt128 mirrors CBPw-Loop128's footprint: 128 BHT entries, 11-bit
// local history, a 2K-entry pattern table of 3-bit counters.
func YehPatt128() YehPattConfig {
	return YehPattConfig{Name: "YehPatt128", Entries: 128, Ways: 8, HistBits: 11, CtrBits: 3}
}

// YehPatt64 halves the BHT.
func YehPatt64() YehPattConfig {
	return YehPattConfig{Name: "YehPatt64", Entries: 64, Ways: 8, HistBits: 11, CtrBits: 3}
}

// NewYehPatt builds a predictor from cfg; it panics on a bad geometry or
// an out-of-range history or counter width.
func NewYehPatt(cfg YehPattConfig) *YehPatt {
	if cfg.HistBits < 2 || cfg.HistBits > 16 {
		panic(fmt.Sprintf("loop: YehPatt HistBits %d out of range [2, 16]", cfg.HistBits))
	}
	if cfg.CtrBits < 2 || cfg.CtrBits > 5 {
		panic(fmt.Sprintf("loop: YehPatt CtrBits %d out of range [2, 5]", cfg.CtrBits))
	}
	p := &YehPatt{
		bht:      newBHT(cfg.Entries, cfg.Ways),
		cfg:      cfg,
		histMask: uint16(1)<<cfg.HistBits - 1,
		retired:  make([]retireView, cfg.Entries),
		ctrs:     make([]uint8, 1<<cfg.HistBits),
		ctrMax:   uint8(1)<<cfg.CtrBits - 1,
	}
	p.ctrMid = (p.ctrMax + 1) / 2
	for i := range p.ctrs {
		p.ctrs[i] = p.ctrMid - 1 // weakly not-taken
	}
	return p
}

// shift moves direction d into history h.
func (p *YehPatt) shift(h uint16, d bool) uint16 {
	h = (h << 1) & p.histMask
	if d {
		h |= 1
	}
	return h
}

// confident reports whether the counter is saturated enough to override.
func (p *YehPatt) confident(ctr uint8) bool {
	return ctr == 0 || ctr == p.ctrMax
}

// Predict implements LocalPredictor.
func (p *YehPatt) Predict(pc uint64) Prediction {
	i := p.lookup(pc)
	if i < 0 {
		return Prediction{}
	}
	e := &p.entries[i]
	if !e.valid || int(p.retired[i].warm) < p.cfg.HistBits {
		return Prediction{}
	}
	ctr := p.ctrs[e.count&p.histMask]
	if !p.confident(ctr) {
		return Prediction{}
	}
	return Prediction{Taken: ctr >= p.ctrMid, Valid: true}
}

// PredictWithOffset implements LocalPredictor. A bit pattern cannot be
// advanced without knowing the in-flight directions, so the offset is
// ignored: update-at-retire integrations simply see the stale pattern, which
// is precisely the weakness the paper ascribes to that scheme.
func (p *YehPatt) PredictWithOffset(pc uint64, _ uint16) Prediction {
	return p.Predict(pc)
}

// SpecUpdate implements LocalPredictor: shift the predicted direction into
// the speculative history.
func (p *YehPatt) SpecUpdate(pc uint64, d bool) bool {
	i := p.lookup(pc)
	if i < 0 {
		return false // allocation happens at retire, where training lives
	}
	e := p.edit(i)
	e.count = p.shift(e.count, d)
	p.touchLRU(i)
	return false
}

// RestoreState implements LocalPredictor (repair write).
func (p *YehPatt) RestoreState(pc uint64, st State) {
	if i, realloc := p.restore(pc, State{Count: st.Count & p.histMask, Valid: st.Valid}); realloc {
		p.retired[i] = retireView{}
	}
}

// ApplyOutcome implements LocalPredictor.
func (p *YehPatt) ApplyOutcome(pc uint64, taken bool) {
	i := p.lookup(pc)
	if i < 0 {
		return
	}
	e := p.edit(i)
	e.count = p.shift(e.count, taken)
	e.valid = true
	p.repairStamp[i] = p.repairGen
}

// Retire implements LocalPredictor: train the pattern table with the
// retire-time history (non-speculative), allocate on final mispredictions,
// and re-synchronize the speculative history when it has gone invalid — at
// retire the architectural history is known exactly.
func (p *YehPatt) Retire(pc uint64, taken, finalMispredicted bool) {
	i := p.lookup(pc)
	if i < 0 {
		if !finalMispredicted {
			return
		}
		i, _ = p.restore(pc, State{Valid: true})
		p.retired[i] = retireView{}
		p.touchLRU(i)
	}
	r := &p.retired[i]
	// Train the counter for the pre-outcome retired pattern.
	if int(r.warm) >= p.cfg.HistBits {
		idx := r.rhist & p.histMask
		if taken {
			if p.ctrs[idx] < p.ctrMax {
				p.ctrs[idx]++
			}
		} else if p.ctrs[idx] > 0 {
			p.ctrs[idx]--
		}
	}
	r.rhist = p.shift(r.rhist, taken)
	if int(r.warm) < p.cfg.HistBits {
		r.warm++
	}
	if !p.entries[i].valid {
		// The speculative view is stale (skipped updates, unrepaired
		// flushes); at retirement the true history is rhist, modulo the
		// in-flight instances. Adopting it re-validates the entry with
		// bounded error, like the loop predictor's flip re-sync.
		e := p.edit(i)
		e.count = r.rhist
		e.valid = true
	}
}

// PatternInfo implements LocalPredictor: a bit-pattern predictor has no
// period/dominant-direction notion, so the zero value is returned.
func (p *YehPatt) PatternInfo(uint64) PTInfo { return PTInfo{} }

// PatternConfident implements LocalPredictor.
func (p *YehPatt) PatternConfident(pc uint64) bool {
	i := p.lookup(pc)
	if i < 0 {
		return false
	}
	e := &p.entries[i]
	return e.valid && int(p.retired[i].warm) >= p.cfg.HistBits && p.confident(p.ctrs[e.count&p.histMask])
}

// PenalizeOverride implements LocalPredictor: weaken the counter that drove
// the wrong override.
func (p *YehPatt) PenalizeOverride(pc uint64) {
	i := p.lookup(pc)
	if i < 0 {
		return
	}
	idx := p.entries[i].count & p.histMask
	switch ctr := p.ctrs[idx]; {
	case ctr == p.ctrMax:
		p.ctrs[idx] = ctr - 1
	case ctr == 0:
		p.ctrs[idx] = 1
	}
}

// BHTStorageBits implements LocalPredictor: tag + two histories + warm
// counter + bookkeeping bits per entry.
func (p *YehPatt) BHTStorageBits() int {
	return p.cfg.Entries * (8 + 2*p.cfg.HistBits + 4 + 3 + 2)
}

// StorageBits implements LocalPredictor.
func (p *YehPatt) StorageBits() int {
	return p.BHTStorageBits() + len(p.ctrs)*p.cfg.CtrBits
}
