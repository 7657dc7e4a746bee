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
// LocalPredictor contract (iface.go).
//
// The package also holds YehPatt, a generic two-level local predictor. Both
// predictors embed one speculative table, bht (bht.go): its ways, LRU order,
// repair bits, the undo journal that whole-table checkpoints (perfect repair,
// the snapshot queue) mark and roll back, and the LocalPredictor methods that
// treat an entry's state as opaque. Each predictor keeps only its own
// state-update rule and its second level.
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
	bht
	cfg Config
	pt  *PatternTable
}

// New builds a predictor with its own PatternTable.
func New(cfg Config) *Predictor { return NewWithPT(cfg, NewPatternTableFor(cfg)) }

// NewPatternTableFor builds the PatternTable New(cfg) binds, resolving the
// zero values Validate accepts as defaults: PTEntries 0 means Entries and
// CounterMax 0 means 2047. The multi-stage split-BHT design builds its
// shared PT here.
func NewPatternTableFor(cfg Config) *PatternTable {
	entries := cfg.PTEntries
	if entries == 0 {
		entries = cfg.Entries
	}
	counterMax := cfg.CounterMax
	if counterMax == 0 {
		counterMax = 2047
	}
	return NewPatternTable(entries, cfg.Ways, cfg.ConfThresh, counterMax)
}

// NewWithPT builds a predictor around an existing PatternTable; the
// multi-stage split-BHT design shares one PT between two BHTs.
func NewWithPT(cfg Config, pt *PatternTable) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.CounterMax == 0 {
		cfg.CounterMax = 2047
	}
	return &Predictor{bht: newBHT(cfg.Entries, cfg.Ways), cfg: cfg, pt: pt}
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

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

// Predict returns the loop predictor's opinion for pc. It does not modify
// any state; callers follow with SpecUpdate using the final chosen direction.
func (p *Predictor) Predict(pc uint64) Prediction {
	pt := p.pt.Info(pc)
	if !pt.Valid || pt.Conf < p.cfg.ConfThresh || pt.Period == 0 {
		return Prediction{}
	}
	i := p.lookup(pc)
	if i < 0 {
		return Prediction{}
	}
	e := &p.entries[i]
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
	i := p.lookup(pc)
	if i < 0 {
		return Prediction{}
	}
	e := &p.entries[i]
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

// SpecUpdate advances pc's BHT counter with the final chosen direction d
// (paper §2.4 event 5) and reports whether a new BHT entry was allocated.
// A missing entry is allocated only at a direction flip (d != PT dominant
// direction), where the restart count of zero is guaranteed correct.
func (p *Predictor) SpecUpdate(pc uint64, d bool) (allocated bool) {
	i := p.lookup(pc)
	if i < 0 {
		pt := p.pt.Info(pc)
		if !pt.Valid || d == pt.Dir {
			return false
		}
		// The new way takes LRU rank 0 without aging the rest of its set,
		// so two ways of the set can share rank 0 (RetireSync and
		// RestoreState keep the victim's rank instead). Changing it
		// moves results, so it waits for the paper-shape checks.
		i = p.victim(pc)
		*p.edit(i) = bhtEntry{tag: p.tagOf(pc), dir: pt.Dir, alloc: true, valid: true}
		p.repairStamp[i] = p.repairGen
		p.touchLRU(i)
		return true
	}
	e := p.edit(i)
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

// RestoreState writes a checkpointed state back into the BHT (repair write).
// If the PC's entry was evicted since the checkpoint, it is re-allocated so
// the repair is not silently dropped.
func (p *Predictor) RestoreState(pc uint64, st State) { p.restore(pc, st) }

// ApplyOutcome applies a resolved branch outcome to pc's BHT state: the
// post-repair step that moves the entry from "state before the mispredicted
// branch" to "state after its actual execution".
func (p *Predictor) ApplyOutcome(pc uint64, taken bool) {
	i := p.lookup(pc)
	if i < 0 {
		return
	}
	e := p.edit(i)
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
	if i := p.lookup(pc); i >= 0 {
		// Re-synchronize an existing entry that is invalid or whose
		// direction predates a PT re-polarization: the flip just
		// happened, so the count restarts at zero. In-sync valid
		// entries are left alone — they were already repaired at
		// resolve time and may have advanced since.
		if e := &p.entries[i]; e.dir != pt.Dir || !e.valid {
			e = p.edit(i)
			e.dir = pt.Dir
			e.count = 0
			e.valid = true
		}
		return
	}
	// Allocate in sync: count zero in the PT's direction, then most
	// recently used.
	i, _ := p.restore(pc, State{Dir: pt.Dir, Valid: true})
	p.touchLRU(i)
}
