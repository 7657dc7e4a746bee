// Package workloads defines the 202-workload evaluation suite mirroring
// Table 1 of the paper: Server (29), HPC (8), ISPEC (34), FSPEC (64),
// Multimedia (15), Business Productivity (16) and Personal (36).
//
// Each workload is a seeded synthetic program (see internal/trace and
// DESIGN.md §3). Category profiles are tuned so the suite reproduces the
// paper's qualitative signatures: HPC/BP/Personal show the largest local-
// predictor MPKI reductions, FSPEC the smallest IPC gains, MM/BP lose
// performance when the BHT is not repaired, and Server workloads touch many
// distinct branch PCs.
package workloads

import (
	"fmt"
	"path/filepath"

	"localbp/internal/trace"
)

// Category is a workload suite category from Table 1.
type Category uint8

// The seven categories of Table 1.
const (
	Server Category = iota
	HPC
	ISPEC
	FSPEC
	Multimedia
	BusinessProd
	Personal
	NumCategories
)

// Stressor and external categories (beyond Table 1; see StressSuite). They
// sit after NumCategories on purpose: Categories() and every per-category
// aggregation over the paper's suite stay the seven Table-1 entries.
const (
	// LoopExit is the loop-exit-distance ladder: fixed trip counts swept
	// from trivially short to far past any global-history window, after the
	// Firestorm/Oryon loop-exit microbenchmarks (arXiv 2411.13900).
	LoopExit Category = NumCategories + 1 + iota
	// HistoryCliff sweeps periodic if-then-else pattern lengths to locate
	// each predictor's effective history-length cliff.
	HistoryCliff
	// Aliasing sweeps the hot loop-branch population past the BHT/PT
	// capacity to expose aliasing and replacement behavior.
	Aliasing
	// External marks file-backed workloads replayed from on-disk traces.
	External
)

// String returns the category label used in the paper's figures.
func (c Category) String() string {
	switch c {
	case Server:
		return "Server"
	case HPC:
		return "HPC"
	case ISPEC:
		return "ISPEC"
	case FSPEC:
		return "FSPEC"
	case Multimedia:
		return "MM"
	case BusinessProd:
		return "BP"
	case Personal:
		return "Personal"
	case LoopExit:
		return "LoopExit"
	case HistoryCliff:
		return "HistoryCliff"
	case Aliasing:
		return "Aliasing"
	case External:
		return "External"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// Categories lists all categories in display order.
func Categories() []Category {
	return []Category{Server, HPC, ISPEC, FSPEC, Multimedia, BusinessProd, Personal}
}

// Profile parameterizes the synthetic program builder for one workload.
type Profile struct {
	// Loop sites.
	LoopSites     int     // number of distinct loop branches
	PeriodMin     int     // minimum loop trip count
	PeriodMax     int     // maximum loop trip count
	EntropicFrac  float64 // fraction of loops with data-dependent trip counts
	NoisyFrac     float64 // fraction of loops with mildly noisy trip counts
	CycleFrac     float64 // fraction of loops alternating between trip counts
	BodyBranchMax int     // max conditional sites inside a loop body
	NestProb      float64 // probability a loop contains an inner loop

	// If-then-else sites.
	CondSites    int
	PatternMin   int // repeating-pattern length range
	PatternMax   int
	PeriodicFrac float64 // fraction of conds that are NNN...T periodic
	CorrFrac     float64 // fraction of conds correlated with global history
	BiasedFrac   float64 // fraction of conds that are biased-random
	BiasedP      float64 // taken probability of biased sites

	// Filler shape.
	BlockMin, BlockMax int
	DepDist            int
	Independence       float64
	Mem                trace.MemProfile
}

// Workload is one entry of the evaluation suite. Exactly one stream shape
// applies: profile-generated (the default), stressor-generated (Stress set),
// or file-backed replay (TraceFile set).
type Workload struct {
	Name     string
	Category Category
	Seed     int64
	Profile  Profile

	// Stress selects a stressor program instead of the Profile builder
	// (loop-exit ladders, history cliffs, aliasing populations).
	Stress *StressSpec
	// TraceFile replays an on-disk trace (LBP2/ChampSim) instead of
	// generating; Seed and Profile are unused.
	TraceFile string
}

// FromFile wraps an on-disk trace as a file-backed workload.
func FromFile(path string) Workload {
	return Workload{Name: filepath.Base(path), Category: External, TraceFile: path}
}

// Generate builds the workload's dynamic instruction stream of n
// instructions. Generation is deterministic in the workload seed; a
// file-backed workload panics (its stream comes from disk — use Open).
func (w Workload) Generate(n int) []trace.Inst {
	return w.GenerateInto(nil, n)
}

// GenerateInto is Generate writing into dst's storage (see
// trace.GenerateInto): recycling one flat chunk across workloads avoids a
// per-trace allocation. The stream is bit-identical to Generate's.
func (w Workload) GenerateInto(dst []trace.Inst, n int) []trace.Inst {
	if w.TraceFile != "" {
		panic(fmt.Sprintf("workloads: %s is file-backed; use Open, not Generate", w.Name))
	}
	prog := w.buildProgram()
	return trace.GenerateInto(dst, prog, n, w.Seed^0x5bd1e995)
}

// buildProgram picks the stressor or profile builder.
func (w Workload) buildProgram() trace.Program {
	if w.Stress != nil {
		return BuildStressProgram(*w.Stress, w.Seed)
	}
	return BuildProgram(w.Profile, w.Seed)
}

// Open returns a streaming source of the workload's first n instructions
// (n <= 0 means the whole stream for file-backed workloads; generated
// workloads require n > 0). File-backed sources hold an open file — release
// with trace.CloseSource.
func (w Workload) Open(n int) (trace.Source, error) {
	if w.TraceFile != "" {
		src, err := trace.OpenSource(w.TraceFile)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			src = trace.Limit(src, n)
		}
		return src, nil
	}
	if n <= 0 {
		return nil, fmt.Errorf("workloads: %s is generated; Open needs an instruction count", w.Name)
	}
	return trace.NewSliceSource(w.Generate(n)), nil
}

// SiteKind classifies a branch site for analysis tooling.
type SiteKind uint8

// Branch site kinds produced by the program builder.
const (
	KindLoopFixed SiteKind = iota
	KindLoopNoisy
	KindLoopCycle
	KindLoopEntropic
	KindLoopInner
	KindCondPeriodic
	KindCondCorrelated
	KindCondBiased
	KindCondPattern
)

// String names the site kind.
func (k SiteKind) String() string {
	switch k {
	case KindLoopFixed:
		return "loop-fixed"
	case KindLoopNoisy:
		return "loop-noisy"
	case KindLoopCycle:
		return "loop-cycle"
	case KindLoopEntropic:
		return "loop-entropic"
	case KindLoopInner:
		return "loop-inner"
	case KindCondPeriodic:
		return "cond-periodic"
	case KindCondCorrelated:
		return "cond-corr"
	case KindCondBiased:
		return "cond-biased"
	case KindCondPattern:
		return "cond-pattern"
	default:
		return "unknown"
	}
}

// SiteInfo describes one branch site of a built program.
type SiteInfo struct {
	PC     uint64
	Kind   SiteKind
	Detail string
}

// BuildProgram constructs the synthetic program for a profile.
func BuildProgram(p Profile, seed int64) trace.Program {
	prog, _ := BuildProgramInfo(p, seed)
	return prog
}

// BuildProgramInfo constructs the synthetic program for a profile and
// returns the branch-site inventory. The program structure (sites, periods,
// patterns) is drawn deterministically from seed; the dynamic stream adds a
// second level of seeded randomness in Generate.
func BuildProgramInfo(p Profile, seed int64) (trace.Program, []SiteInfo) {
	r := trace.NewRNG(seed)
	var regions []trace.Region
	var sites []SiteInfo
	site := 0
	nextSite := func() int { s := site; site++; return s }
	noteSite := func(s int, k SiteKind, detail string) {
		sites = append(sites, SiteInfo{PC: trace.SitePC(s), Kind: k, Detail: detail})
	}

	block := func() trace.Region {
		return trace.Block{Site: nextSite(), Len: r.Range(p.BlockMin, p.BlockMax)}
	}

	makeCond := func() trace.Region {
		s := nextSite()
		var g trace.PatternGen
		switch v := r.Float64(); {
		case v < p.PeriodicFrac:
			// Periodic conditionals fire often enough to matter: their
			// periods sit at the low end of the loop-period range.
			lo := max(4, p.PeriodMin/2)
			hi := min(48, max(lo+2, p.PeriodMax/2))
			g = &trace.PeriodicPattern{
				Period: r.Range(lo, hi),
				Jitter: 2,
				Prob:   0.05,
			}
			noteSite(s, KindCondPeriodic, g.Describe())
		case v < p.PeriodicFrac+p.CorrFrac:
			g = trace.CorrelatedPattern{
				Mask:  uint64(1)<<uint(r.Range(1, 10)) | uint64(1)<<uint(r.Range(1, 6)),
				Noise: 0.02,
			}
			noteSite(s, KindCondCorrelated, g.Describe())
		case v < p.PeriodicFrac+p.CorrFrac+p.BiasedFrac:
			g = trace.BiasedPattern{P: p.BiasedP}
			noteSite(s, KindCondBiased, g.Describe())
		default:
			n := r.Range(p.PatternMin, p.PatternMax)
			pat := make([]bool, n)
			for i := range pat {
				pat[i] = r.Bool(0.5)
			}
			// Ensure the pattern is not constant so it stays a live branch.
			pat[0], pat[n-1] = true, false
			g = &trace.RepeatingPattern{Pattern: pat}
			noteSite(s, KindCondPattern, g.Describe())
		}
		return trace.Cond{
			Site:    s,
			Outcome: g,
			ThenLen: r.Range(2, 1+p.BlockMax),
			ElseLen: r.Range(0, p.BlockMin),
		}
	}

	makePeriods := func() trace.PeriodGen {
		base := r.Range(p.PeriodMin, p.PeriodMax)
		switch v := r.Float64(); {
		case v < p.EntropicFrac:
			return trace.EntropicPeriod{Min: max(2, base/2), Max: base + base/2 + 1}
		case v < p.EntropicFrac+p.NoisyFrac:
			return trace.NoisyPeriod{Base: base, Jitter: max(1, base/8), Prob: 0.08}
		case v < p.EntropicFrac+p.NoisyFrac+p.CycleFrac:
			alt := r.Range(p.PeriodMin, p.PeriodMax)
			reps := r.Range(2, 6)
			counts := make([]int, reps+1)
			for i := 0; i < reps; i++ {
				counts[i] = base
			}
			counts[reps] = alt
			return &trace.CyclePeriod{Counts: counts}
		default:
			return trace.FixedPeriod(base)
		}
	}

	// Inner loops run short trip counts so one outer visit stays bounded
	// (and so the suite's instruction budget reaches every site).
	makeInnerPeriods := func() trace.PeriodGen {
		base := r.Range(3, 12)
		if r.Bool(p.EntropicFrac) {
			return trace.EntropicPeriod{Min: 2, Max: base + 3}
		}
		return trace.FixedPeriod(base)
	}

	var makeLoop func(depth int) trace.Region
	makeLoop = func(depth int) trace.Region {
		s := nextSite()
		var body []trace.Region
		bigBody := depth == 0 && r.Bool(0.3)
		if bigBody {
			// A share of loops have substantial bodies, as real hot
			// loops do; one iteration exceeds the in-flight window, so
			// even a retire-time (delayed) BHT update sees a current
			// count — the sub-population where the paper's
			// update-at-retire scheme earns its 41% (paper §6.2).
			body = append(body, trace.Block{Site: nextSite(), Len: r.Range(80, 150)})
		} else {
			body = append(body, block())
		}
		nCond := r.Range(0, p.BodyBranchMax)
		if bigBody && nCond == 0 {
			nCond = 1 // keep the history diluted so TAGE cannot capture the exit
		}
		for i := 0; i < nCond; i++ {
			body = append(body, makeCond())
		}
		if bigBody {
			body = append(body, trace.Block{Site: nextSite(), Len: r.Range(80, 150)})
		}
		if depth < 1 && r.Bool(p.NestProb) {
			body = append(body, makeLoop(depth+1))
		}
		body = append(body, block())
		periods := makePeriods()
		if depth > 0 {
			periods = makeInnerPeriods()
			noteSite(s, KindLoopInner, periods.Describe())
		} else {
			kind := KindLoopFixed
			switch periods.(type) {
			case trace.EntropicPeriod:
				kind = KindLoopEntropic
			case trace.NoisyPeriod:
				kind = KindLoopNoisy
			case *trace.CyclePeriod:
				kind = KindLoopCycle
			}
			noteSite(s, kind, periods.Describe())
		}
		return trace.Loop{Site: s, Periods: periods, Body: body}
	}

	for i := 0; i < p.LoopSites; i++ {
		regions = append(regions, makeLoop(0))
		if r.Bool(0.5) {
			regions = append(regions, makeCond())
		}
		regions = append(regions, block())
	}
	for i := 0; i < p.CondSites; i++ {
		regions = append(regions, makeCond(), block())
	}

	return trace.Program{Regions: regions, MemProfile: p.Mem, DepDist: p.DepDist, Independence: p.Independence}, sites
}
