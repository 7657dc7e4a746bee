// Package core implements the cycle-level out-of-order superscalar model the
// paper evaluates on: a Skylake-like 4-wide pipeline (Table 2) with a
// 224-entry ROB, a 64-entry allocation queue, a dependence scoreboard with
// limited functional units and load/store ports, the Table 2 memory
// hierarchy, and a branch prediction unit with speculative fetch, wrong-path
// pollution, flush/resteer and local-predictor repair. Table 2's load and
// store buffers are not modeled: no stage waits on them (DESIGN.md §8).
package core

import (
	"errors"
	"fmt"

	"localbp/internal/audit"
	"localbp/internal/bpu/btb"
	"localbp/internal/mem"
	"localbp/internal/obs"
	"localbp/internal/trace"
)

// Config parameterizes the core model; DefaultConfig matches Table 2.
type Config struct {
	Width         int   // fetch/allocate/retire width
	ROBSize       int   // reorder buffer entries
	AllocQueue    int   // fetch-to-alloc queue entries (alloc queue)
	FrontendDepth int64 // fetch → allocate latency in cycles
	// ResteerPenalty is the additional redirect latency after a mispredicted
	// branch resolves, before fetch restarts (on top of refilling the
	// front end).
	ResteerPenalty int64
	// EarlyResteerPenalty is the front-end flush cost of an allocation-stage
	// override (multi-stage prediction, paper §3.2).
	EarlyResteerPenalty int64

	// Functional-unit counts per class.
	ALUs, Muls, FPs, LoadPorts, StorePorts int

	// Latencies for non-memory classes.
	LatALU, LatMul, LatFP int64

	// WrongPath enables wrong-path synthesis after a mispredicted branch
	// is fetched: synthesized instructions pollute predictor state until
	// the branch resolves (see DESIGN.md §3, substitution 2).
	WrongPath bool

	Mem mem.HierarchyConfig

	// MaxWrongPathPerFlush caps synthesized wrong-path instructions per
	// divergence (safety bound; generous by default).
	MaxWrongPathPerFlush int

	// BTB models the branch target buffer: a predicted-taken branch that
	// misses it cannot redirect fetch until decode, costing BTBMissPenalty
	// cycles of fetch stall. Entries fill when branches resolve. Zero
	// Entries models no BTB.
	BTB            btb.Config
	BTBMissPenalty int64

	// WarmupInsts excludes the first N retired instructions from the
	// reported statistics (predictor training and cache warmup), in the
	// spirit of Simpoint-style measurement.
	WarmupInsts uint64

	// MaxCycles bounds the total simulated cycles; exceeding it aborts the
	// run with an ErrStalled-wrapping StallError. 0 selects an automatic
	// budget generous enough for any sane CPI (see cycleBudget).
	MaxCycles int64

	// StallCycles is the no-retire deadman: if this many consecutive cycles
	// pass without retiring a single instruction, the run aborts with a
	// StallError and a pipeline dump. 0 selects DefaultStallCycles.
	StallCycles int64

	// Audit, when non-nil, enables the integrity auditor's core-loop checks
	// (retire monotonicity, ROB age ordering, occupancy bounds, resolution
	// consistency) in addition to the always-on structural invariants. The
	// first violation aborts the run with its *audit.IntegrityError. All
	// checks are read-only: reported statistics are bit-identical to an
	// unaudited run. An audited run skips idle windows like any other; the
	// periodic scan runs at the first live cycle at or after each 64-cycle
	// boundary.
	Audit *audit.Auditor

	// Golden, when non-nil, cross-checks every real-path retirement (and the
	// final instruction/branch counts) against the timing-free in-order
	// golden model. Divergence aborts the run at the offending retire.
	Golden *audit.Golden

	// Obs, when non-nil, wires the observability layer: the counter registry
	// (core and memory counters become pull sources), per-cycle CPI-stack
	// attribution, and/or the structured event tracer — whichever fields of
	// the Hooks are non-nil. With Obs nil the hot loop touches no obs symbol
	// beyond per-cycle nil checks.
	Obs *obs.Hooks
}

// DefaultStallCycles is the no-retire deadman threshold when
// Config.StallCycles is zero. The longest legitimate retire gap is a chain
// of DRAM misses (~170 cycles each) behind a full ROB — tens of thousands of
// cycles without a retire is unambiguously a modeling bug.
const DefaultStallCycles = 100_000

// cycleBudget returns the automatic MaxCycles for an n-instruction program:
// a worst-case CPI far beyond anything the memory hierarchy can produce,
// plus slack for drain on tiny programs.
func cycleBudget(n int) int64 { return 2_000*int64(n) + 1_000_000 }

// DefaultConfig returns the Table 2 core.
func DefaultConfig() Config {
	return Config{
		Width:                4,
		ROBSize:              224,
		AllocQueue:           64,
		FrontendDepth:        10,
		ResteerPenalty:       2,
		EarlyResteerPenalty:  1,
		ALUs:                 4,
		Muls:                 1,
		FPs:                  2,
		LoadPorts:            2,
		StorePorts:           1,
		LatALU:               1,
		LatMul:               4,
		LatFP:                4,
		WrongPath:            true,
		Mem:                  mem.DefaultHierarchy(),
		MaxWrongPathPerFlush: 512,
		BTB:                  btb.DefaultConfig(),
		BTBMissPenalty:       6,
	}
}

// Validate checks the configuration and returns a field-level error for
// every violated constraint (all violations, joined), or nil. Run it before
// simulating so a malformed config fails fast instead of producing a
// degenerate or non-terminating model.
func (c Config) Validate() error {
	var errs []error
	bad := func(field string, got any, want string) {
		errs = append(errs, fmt.Errorf("core.Config.%s: got %v, want %s", field, got, want))
	}
	if c.Width <= 0 {
		bad("Width", c.Width, "> 0")
	}
	if c.ROBSize <= 0 {
		bad("ROBSize", c.ROBSize, "> 0")
	}
	if c.AllocQueue <= 0 {
		bad("AllocQueue", c.AllocQueue, "> 0")
	}
	if c.FrontendDepth < 0 {
		bad("FrontendDepth", c.FrontendDepth, ">= 0")
	}
	if c.ResteerPenalty < 0 {
		bad("ResteerPenalty", c.ResteerPenalty, ">= 0")
	}
	if c.EarlyResteerPenalty < 0 {
		bad("EarlyResteerPenalty", c.EarlyResteerPenalty, ">= 0")
	}
	if c.ALUs <= 0 {
		bad("ALUs", c.ALUs, "> 0")
	}
	if c.Muls <= 0 {
		bad("Muls", c.Muls, "> 0")
	}
	if c.FPs <= 0 {
		bad("FPs", c.FPs, "> 0")
	}
	if c.LoadPorts <= 0 {
		bad("LoadPorts", c.LoadPorts, "> 0")
	}
	if c.StorePorts <= 0 {
		bad("StorePorts", c.StorePorts, "> 0")
	}
	if c.LatALU < 1 {
		bad("LatALU", c.LatALU, ">= 1")
	}
	if c.LatMul < 1 {
		bad("LatMul", c.LatMul, ">= 1")
	}
	if c.LatFP < 1 {
		bad("LatFP", c.LatFP, ">= 1")
	}
	if c.MaxWrongPathPerFlush < 0 {
		bad("MaxWrongPathPerFlush", c.MaxWrongPathPerFlush, ">= 0")
	}
	if c.BTBMissPenalty < 0 {
		bad("BTBMissPenalty", c.BTBMissPenalty, ">= 0")
	}
	if c.MaxCycles < 0 {
		bad("MaxCycles", c.MaxCycles, ">= 0 (0 = automatic)")
	}
	if c.StallCycles < 0 {
		bad("StallCycles", c.StallCycles, ">= 0 (0 = default)")
	}
	if err := c.Mem.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.BTB.Entries != 0 { // 0 = no BTB
		if err := c.BTB.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Stats aggregates one simulation run.
type Stats struct {
	Cycles           int64
	Insts            uint64 // retired instructions
	Branches         uint64 // retired conditional branches
	Mispredicts      uint64 // final-prediction mispredictions (correct path)
	TageMispredicts  uint64 // what TAGE alone would have mispredicted
	Flushes          uint64
	EarlyResteers    uint64
	WrongPathInsts   uint64
	FetchStallCycles int64
	BTBMisses        uint64
}

// sub returns s - w, fieldwise (warmup subtraction).
func (s Stats) sub(w Stats) Stats {
	return Stats{
		Cycles:           s.Cycles - w.Cycles,
		Insts:            s.Insts - w.Insts,
		Branches:         s.Branches - w.Branches,
		Mispredicts:      s.Mispredicts - w.Mispredicts,
		TageMispredicts:  s.TageMispredicts - w.TageMispredicts,
		Flushes:          s.Flushes - w.Flushes,
		EarlyResteers:    s.EarlyResteers - w.EarlyResteers,
		WrongPathInsts:   s.WrongPathInsts - w.WrongPathInsts,
		FetchStallCycles: s.FetchStallCycles - w.FetchStallCycles,
		BTBMisses:        s.BTBMisses - w.BTBMisses,
	}
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// MPKI returns final mispredictions per kilo-instruction.
func (s Stats) MPKI() float64 {
	if s.Insts == 0 {
		return 0
	}
	return 1000 * float64(s.Mispredicts) / float64(s.Insts)
}

// TageMPKI returns the baseline TAGE mispredictions per kilo-instruction
// observed on the same retired path.
func (s Stats) TageMPKI() float64 {
	if s.Insts == 0 {
		return 0
	}
	return 1000 * float64(s.TageMispredicts) / float64(s.Insts)
}

func latencyOf(cfg *Config, class trace.Class) int64 {
	switch class {
	case trace.ClassMul:
		return cfg.LatMul
	case trace.ClassFP:
		return cfg.LatFP
	default:
		return cfg.LatALU
	}
}
