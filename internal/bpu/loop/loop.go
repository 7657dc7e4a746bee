// Package loop implements CBPw-Loop, the loop predictor of the CBP-2016
// winner (8KB category) redesigned as a conventional two-level predictor per
// §2.3 of the paper: a set-associative Branch History Table (BHT) holding the
// *speculative* current iteration count of each tracked branch, and a Pattern
// Table (PT) holding the learned final iteration count (period), dominant
// direction and confidence.
//
// The predictor covers backward loop branches (TTT...N) and forward
// if-then-else branches (NNN...T): the dominant direction is learned per PC.
//
// Only the BHT is speculative: it is updated with the final chosen prediction
// immediately after predicting (paper §2.4 event 5), so its state must be
// repaired after a misprediction. The PT is trained non-speculatively at
// retirement. All repair policies in internal/repair operate on the
// State/Restore API exposed here.
package loop

import (
	"errors"
	"fmt"
)

// Config sizes a CBPw-Loop predictor. The paper studies 64-, 128- and
// 256-entry configurations, all 8-way set associative (Table 2).
type Config struct {
	Name       string
	Entries    int // BHT entries
	PTEntries  int // PT entries; 0 means same as Entries
	Ways       int
	ConfThresh uint8 // PT confidence needed to override TAGE
	CounterMax uint16
}

// Validate checks the configuration and returns a field-level error for
// every violated constraint (joined), or nil. New and NewWithPT panic on a
// config that fails validation; run Validate first to fail fast with a
// diagnosable error before simulation starts.
func (c Config) Validate() error {
	var errs []error
	bad := func(field string, got any, want string) {
		errs = append(errs, fmt.Errorf("loop.Config.%s: got %v, want %s", field, got, want))
	}
	if c.Ways <= 0 {
		bad("Ways", c.Ways, "> 0")
	}
	if c.Entries <= 0 {
		bad("Entries", c.Entries, "> 0")
	} else if c.Ways > 0 {
		if c.Entries%c.Ways != 0 {
			bad("Entries", c.Entries, fmt.Sprintf("a multiple of Ways (%d)", c.Ways))
		} else if sets := c.Entries / c.Ways; sets&(sets-1) != 0 {
			bad("Entries", c.Entries, fmt.Sprintf("a power-of-two set count (got %d sets)", sets))
		}
	}
	if c.PTEntries < 0 {
		bad("PTEntries", c.PTEntries, ">= 0 (0 = same as Entries)")
	} else if c.PTEntries > 0 && c.Ways > 0 {
		if c.PTEntries%c.Ways != 0 {
			bad("PTEntries", c.PTEntries, fmt.Sprintf("a multiple of Ways (%d)", c.Ways))
		} else if sets := c.PTEntries / c.Ways; sets&(sets-1) != 0 {
			bad("PTEntries", c.PTEntries, fmt.Sprintf("a power-of-two set count (got %d sets)", sets))
		}
	}
	if c.ConfThresh > confMax {
		bad("ConfThresh", c.ConfThresh, fmt.Sprintf("<= %d", confMax))
	}
	if c.CounterMax > 2047 {
		bad("CounterMax", c.CounterMax, "<= 2047 (11-bit iteration counter, 0 = default)")
	}
	return errors.Join(errs...)
}

// Loop64 is the smallest Table 2 configuration.
func Loop64() Config {
	return Config{Name: "CBPw-Loop64", Entries: 64, Ways: 8, ConfThresh: 6, CounterMax: 2047}
}

// Loop128 is the paper's default configuration.
func Loop128() Config {
	return Config{Name: "CBPw-Loop128", Entries: 128, Ways: 8, ConfThresh: 6, CounterMax: 2047}
}

// Loop256 is the largest configuration studied.
func Loop256() Config {
	return Config{Name: "CBPw-Loop256", Entries: 256, Ways: 8, ConfThresh: 6, CounterMax: 2047}
}

const (
	confMax = 7
	ageMax  = 255
)

// bhtEntry is one BHT way: the speculative current iteration count of one
// branch PC. alloc marks the tag as meaningful; valid marks the *count* as
// trustworthy for predictions (the split-BHT and limited-PC designs
// invalidate counts without releasing the entry, and a later direction flip
// re-validates it — paper §3.2/§3.3).
type bhtEntry struct {
	tag   uint16
	count uint16
	dir   bool
	alloc bool
	valid bool
	lru   uint8
}

// State is the speculative BHT state of one PC, as checkpointed by repair
// policies and carried through the pipeline (the paper's 11-bit pattern plus
// valid bit; dir rides along because our counter is direction-explicit).
type State struct {
	Count uint16
	Dir   bool
	Valid bool
}

// Prediction is the loop predictor's output for one branch.
type Prediction struct {
	Taken bool
	// Valid reports whether the predictor has a confident opinion; when
	// false the TAGE prediction stands.
	Valid bool
}

// Predictor is a CBPw-Loop BHT bound to a PatternTable (possibly shared).
type Predictor struct {
	cfg      Config
	sets     int
	setMask  uint64
	tagShift uint
	bht      []bhtEntry
	pt       *PatternTable

	// Forward-walk repair bits: an entry's bit is "set" (awaiting its
	// first repair write) when its stamp differs from the current
	// generation, letting RepairStart mark every entry in O(1).
	repairGen   uint32
	repairStamp []uint32
}

// New builds a predictor with its own PatternTable.
func New(cfg Config) *Predictor {
	ptEntries := cfg.PTEntries
	if ptEntries == 0 {
		ptEntries = cfg.Entries
	}
	if cfg.CounterMax == 0 {
		cfg.CounterMax = 2047
	}
	pt := NewPatternTable(ptEntries, cfg.Ways, cfg.ConfThresh, cfg.CounterMax)
	return NewWithPT(cfg, pt)
}

// NewWithPT builds a predictor around an existing PatternTable; the
// multi-stage split-BHT design shares one PT between two BHTs.
func NewWithPT(cfg Config, pt *PatternTable) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Entries / cfg.Ways
	if cfg.CounterMax == 0 {
		cfg.CounterMax = 2047
	}
	p := &Predictor{
		cfg:         cfg,
		sets:        sets,
		setMask:     uint64(sets - 1),
		tagShift:    uint(log2(sets)),
		bht:         make([]bhtEntry, cfg.Entries),
		pt:          pt,
		repairGen:   1,
		repairStamp: make([]uint32, cfg.Entries),
	}
	// Establish the LRU rank permutation (0..ways-1) per set.
	for s := 0; s < sets; s++ {
		for w := 0; w < cfg.Ways; w++ {
			p.bht[s*cfg.Ways+w].lru = uint8(w)
		}
	}
	return p
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Entries returns the BHT capacity.
func (p *Predictor) Entries() int { return p.cfg.Entries }

// PT returns the bound pattern table.
func (p *Predictor) PT() *PatternTable { return p.pt }

// StorageBits approximates the BHT storage (tag, 11-bit counter, direction,
// valid, repair and LRU bits) plus the bound PT. Callers sharing a PT should
// count it once.
func (p *Predictor) StorageBits() int {
	return p.BHTStorageBits() + p.pt.StorageBits()
}

// BHTStorageBits returns the BHT-only storage budget.
func (p *Predictor) BHTStorageBits() int {
	return p.cfg.Entries * (8 + 11 + 1 + 1 + 1 + 3)
}

// pcHash folds PC bits so that regularly-strided branch addresses spread
// across sets, as hardware index/tag hash functions do.
func pcHash(pc uint64) uint64 {
	v := pc >> 2
	return v ^ (v >> 5) ^ (v >> 11) ^ (v >> 17)
}

func (p *Predictor) set(pc uint64) int { return int(pcHash(pc) & p.setMask) }
func (p *Predictor) tagOf(pc uint64) uint16 {
	return uint16((pcHash(pc)>>p.tagShift)^(pcHash(pc)>>13)) & 0xff
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// bhtLookup returns the index of pc's BHT entry, or -1. Invalidated entries
// keep their tag so a direction flip can re-synchronize them, so the match
// requires alloc, not valid.
func (p *Predictor) bhtLookup(pc uint64) int {
	s, tag := p.set(pc), p.tagOf(pc)
	base := s * p.cfg.Ways
	for w := 0; w < p.cfg.Ways; w++ {
		e := &p.bht[base+w]
		if e.alloc && e.tag == tag {
			return base + w
		}
	}
	return -1
}

// touchLRU promotes the entry at idx to most-recently-used within its set.
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

// Predict returns the loop predictor's opinion for pc. It does not modify
// any state; callers follow with SpecUpdate using the final chosen direction.
func (p *Predictor) Predict(pc uint64) Prediction {
	pt := p.pt.Info(pc)
	if !pt.Valid || pt.Conf < p.cfg.ConfThresh || pt.Period == 0 {
		return Prediction{}
	}
	i := p.bhtLookup(pc)
	if i < 0 {
		return Prediction{}
	}
	e := &p.bht[i]
	if !e.valid || e.dir != pt.Dir {
		return Prediction{}
	}
	if e.count+1 >= pt.Period {
		return Prediction{Taken: !pt.Dir, Valid: true} // predict the exit
	}
	return Prediction{Taken: pt.Dir, Valid: true}
}

// PredictWithOffset predicts like Predict but advances the tracked count by
// offset speculative instances. The update-at-retire scheme uses it: the BHT
// count lags by the branch's in-flight instances, which a per-PC in-flight
// counter measures exactly (paper §6.2).
func (p *Predictor) PredictWithOffset(pc uint64, offset uint16) Prediction {
	pt := p.pt.Info(pc)
	if !pt.Valid || pt.Conf < p.cfg.ConfThresh || pt.Period == 0 {
		return Prediction{}
	}
	i := p.bhtLookup(pc)
	if i < 0 {
		return Prediction{}
	}
	e := &p.bht[i]
	if !e.valid || e.dir != pt.Dir {
		return Prediction{}
	}
	c := e.count + offset
	if c >= pt.Period {
		// The exit already passed in flight; the in-flight instances
		// restart the run.
		c -= pt.Period
	}
	if c+1 >= pt.Period {
		return Prediction{Taken: !pt.Dir, Valid: true}
	}
	return Prediction{Taken: pt.Dir, Valid: true}
}

// LookupState returns the current speculative BHT state of pc; ok is false
// when the PC is not tracked.
func (p *Predictor) LookupState(pc uint64) (State, bool) {
	i := p.bhtLookup(pc)
	if i < 0 {
		return State{}, false
	}
	e := &p.bht[i]
	return State{Count: e.count, Dir: e.dir, Valid: e.valid}, true
}

// SpecUpdate advances pc's BHT counter with the final chosen direction d
// (paper §2.4 event 5) and reports whether a new BHT entry was allocated.
// A missing entry is allocated only at a direction flip (d != PT dominant
// direction), where the restart count of zero is guaranteed correct.
func (p *Predictor) SpecUpdate(pc uint64, d bool) (allocated bool) {
	i := p.bhtLookup(pc)
	if i < 0 {
		pt := p.pt.Info(pc)
		if !pt.Valid || d == pt.Dir {
			return false
		}
		i = p.bhtVictim(pc)
		p.bht[i] = bhtEntry{tag: p.tagOf(pc), dir: pt.Dir, alloc: true, valid: true}
		p.repairStamp[i] = p.repairGen
		p.touchLRU(i)
		return true
	}
	e := &p.bht[i]
	if d == e.dir {
		if e.count < p.cfg.CounterMax {
			e.count++
		}
	} else {
		e.count = 0
		e.valid = true // a flip re-synchronizes a previously invalidated entry
	}
	p.touchLRU(i)
	return false
}

func (p *Predictor) bhtVictim(pc uint64) int {
	base := p.set(pc) * p.cfg.Ways
	victim := base
	for w := 0; w < p.cfg.Ways; w++ {
		e := &p.bht[base+w]
		if !e.alloc {
			return base + w
		}
		if e.lru > p.bht[victim].lru {
			victim = base + w
		}
	}
	return victim
}

// RestoreState writes a checkpointed state back into the BHT (repair write).
// If the PC's entry was evicted since the checkpoint, it is re-allocated so
// the repair is not silently dropped.
func (p *Predictor) RestoreState(pc uint64, st State) {
	i := p.bhtLookup(pc)
	if i < 0 {
		i = p.bhtVictim(pc)
		p.bht[i] = bhtEntry{tag: p.tagOf(pc), alloc: true, lru: p.bht[i].lru}
	}
	e := &p.bht[i]
	e.count = st.Count
	e.dir = st.Dir
	e.valid = st.Valid
	p.repairStamp[i] = p.repairGen
}

// ApplyOutcome applies a resolved branch outcome to pc's BHT state: the
// post-repair step that moves the entry from "state before the mispredicted
// branch" to "state after its actual execution".
func (p *Predictor) ApplyOutcome(pc uint64, taken bool) {
	i := p.bhtLookup(pc)
	if i < 0 {
		return
	}
	e := &p.bht[i]
	if taken == e.dir {
		if e.count < p.cfg.CounterMax {
			e.count++
		}
	} else {
		e.count = 0
		e.valid = true
	}
	p.repairStamp[i] = p.repairGen
}

// Invalidate marks pc's count untrustworthy without releasing the entry
// (limited-PC "mark invalid" variant and split-BHT repair window, §3.2/§3.3).
func (p *Predictor) Invalidate(pc uint64) {
	if i := p.bhtLookup(pc); i >= 0 {
		p.bht[i].valid = false
	}
}

// InvalidateAll marks every BHT count untrustworthy.
func (p *Predictor) InvalidateAll() {
	for i := range p.bht {
		p.bht[i].valid = false
	}
}

// Retire trains the PT with the architectural outcome of pc (paper §2.4
// event 6: the PT is updated only after the branch completes).
// finalMispredicted drives allocation — of the PT entry, and of the BHT
// entry itself: a mispredicted flip (exit) is the one moment the current
// iteration count is known exactly (zero), so the BHT entry starts in sync.
func (p *Predictor) Retire(pc uint64, taken, finalMispredicted bool) {
	p.pt.Train(pc, taken, finalMispredicted)
	p.RetireSync(pc, taken, finalMispredicted)
}

// RetireSync performs the BHT-side retire work without training the PT:
// the multi-stage design shares one PT between two BHTs and must not train
// it twice (paper §3.2.1).
func (p *Predictor) RetireSync(pc uint64, taken, finalMispredicted bool) {
	if !finalMispredicted {
		return
	}
	pt := p.pt.Info(pc)
	if !pt.Valid || taken == pt.Dir {
		return
	}
	if i := p.bhtLookup(pc); i >= 0 {
		// Re-synchronize an existing entry that is invalid or whose
		// direction predates a PT re-polarization: the flip just
		// happened, so the count restarts at zero. In-sync valid
		// entries are left alone — they were already repaired at
		// resolve time and may have advanced since.
		e := &p.bht[i]
		if e.dir != pt.Dir || !e.valid {
			e.dir = pt.Dir
			e.count = 0
			e.valid = true
		}
		return
	}
	i := p.bhtVictim(pc)
	p.bht[i] = bhtEntry{tag: p.tagOf(pc), dir: pt.Dir, alloc: true, valid: true, lru: p.bht[i].lru}
	p.repairStamp[i] = p.repairGen
	p.touchLRU(i)
}

// --- repair-bit machinery (forward walk, §3.1) ---

// RepairStart sets the repair bit on every BHT entry (O(1) via generation).
func (p *Predictor) RepairStart() { p.repairGen++ }

// RepairBitSet reports whether pc's entry still has its repair bit set,
// i.e. has not yet been written during the current repair.
func (p *Predictor) RepairBitSet(pc uint64) bool {
	i := p.bhtLookup(pc)
	if i < 0 {
		return true // an untracked PC has never been repaired this walk
	}
	return p.repairStamp[i] != p.repairGen
}

// FullState is the complete image of one BHT entry, including the tag and
// allocation bit, for whole-table snapshots (perfect repair and the snapshot
// queue). OBQ-style checkpoints use the narrower State: they restore a known
// PC into a live entry, while a whole-table restore must also undo
// allocations and evictions that happened after the snapshot.
type FullState struct {
	Tag   uint16
	Count uint16
	LRU   uint8
	Dir   bool
	Alloc bool
	Valid bool
}

// SnapshotBHT copies the full speculative BHT state into dst (allocating if
// needed) and returns it. Indexes match internal entry order.
func (p *Predictor) SnapshotBHT(dst []FullState) []FullState {
	if cap(dst) < len(p.bht) {
		dst = make([]FullState, len(p.bht))
	}
	dst = dst[:len(p.bht)]
	for i := range p.bht {
		e := &p.bht[i]
		dst[i] = FullState{Tag: e.tag, Count: e.count, LRU: e.lru, Dir: e.dir, Alloc: e.alloc, Valid: e.valid}
	}
	return dst
}

// RestoreBHT writes a full snapshot back, returning the number of entries
// whose predictive state actually changed (the repair-write count of
// Figure 8).
func (p *Predictor) RestoreBHT(snap []FullState) int {
	if len(snap) != len(p.bht) {
		panic("loop: snapshot geometry mismatch")
	}
	changed := 0
	for i := range p.bht {
		e := &p.bht[i]
		if fullDiffers(e, &snap[i]) {
			changed++
			p.repairStamp[i] = p.repairGen
		}
		*e = bhtEntry{tag: snap[i].Tag, count: snap[i].Count, lru: snap[i].LRU,
			dir: snap[i].Dir, alloc: snap[i].Alloc, valid: snap[i].Valid}
	}
	return changed
}

// DiffBHT counts entries whose predictive state differs from snap without
// modifying anything.
func (p *Predictor) DiffBHT(snap []FullState) int {
	if len(snap) != len(p.bht) {
		panic("loop: snapshot geometry mismatch")
	}
	n := 0
	for i := range p.bht {
		if fullDiffers(&p.bht[i], &snap[i]) {
			n++
		}
	}
	return n
}

// fullDiffers ignores LRU: only predictive state counts as a repair write.
func fullDiffers(e *bhtEntry, s *FullState) bool {
	return e.count != s.Count || e.dir != s.Dir || e.valid != s.Valid ||
		e.alloc != s.Alloc || e.tag != s.Tag
}
