// Package localbp reproduces "Towards the adoption of Local Branch
// Predictors in Modern Out-of-Order Superscalar Processors" (Soundararajan
// et al., MICRO-52, 2019): a cycle-level out-of-order core with a TAGE
// baseline predictor, the CBPw-Loop two-level local predictor, and every
// BHT repair scheme the paper studies — perfect, none, update-at-retire,
// snapshot queue, backward/forward walk history files, multi-stage split
// BHT, and limited-PC repair.
//
// This package is the public facade. Schemes are values built by named
// constructors or by configuration name (SchemeByName), and a simulation
// is one Simulate call, tuned with functional options:
//
//	w, _ := localbp.Workload("cloud-compression")
//	res, err := localbp.Simulate(w, 500_000, localbp.ForwardWalk(),
//		localbp.WithAudit(), localbp.WithCPIStack())
//	if err != nil { ... }
//	fmt.Printf("IPC %.2f, MPKI %.2f\n%s", res.IPC, res.MPKI, res.CPI)
//
// FromSource runs a prepared trace instead: an in-memory stream
// (trace.NewSliceSource) or an on-disk file (OpenTrace).
//
// Observability (the CPI stack, the counter registry, the event tracer) is
// opt-in per run: a Simulate call without WithCPIStack/WithCounters/
// WithEventTrace/WithObserver runs the bare pipeline.
//
// Every run goes through the experiment harness's one simulation pipeline
// (internal/harness.Run), the same one the lbpsim and lbpsweep commands
// use, so a facade number matches theirs for the same trace and scheme,
// and LBP_AUDIT=1 audits facade runs too. The full component API lives in
// the internal packages and is exercised by the cmd/ tools, the examples/
// programs and the harness; see DESIGN.md for the architecture and
// EXPERIMENTS.md for the paper-vs-measured results.
package localbp

import (
	"context"
	"errors"
	"fmt"

	"localbp/internal/harness"
	"localbp/internal/obs"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// Scheme names a local-predictor integration (predictor + repair). Values
// are built by the named constructors (BaselineTAGE, ForwardWalk, ...) or
// SchemeByName, and every one resolves its configuration name through the
// experiment harness's one parser (harness.SpecFor), the same one the
// experiments and lbpsim -scheme use.
type Scheme interface {
	// Label returns the scheme's display name.
	Label() string
	// spec keeps the interface closed over this package's constructors.
	spec() schemeSpec
}

type schemeSpec struct {
	label string
	name  string // configuration name, resolved by harness.SpecFor
}

func (s schemeSpec) Label() string    { return s.label }
func (s schemeSpec) spec() schemeSpec { return s }

// BaselineTAGE simulates the TAGE-only baseline (no local predictor).
func BaselineTAGE() Scheme { return schemeSpec{"tage", "tage"} }

// PerfectRepair is the oracle upper bound: unbounded checkpoints, zero-cycle
// repair.
func PerfectRepair() Scheme { return schemeSpec{"perfect", "perfect"} }

// NoRepair leaves the speculative BHT state unrepaired (paper §2.7).
func NoRepair() Scheme { return schemeSpec{"no-repair", "no-repair"} }

// RetireUpdate defers BHT updates to retirement (paper §6.2).
func RetireUpdate() Scheme { return schemeSpec{"retire-update", "retire-update"} }

// SnapshotQueue checkpoints the full BHT per branch (SNAP-32-8-8).
func SnapshotQueue() Scheme { return schemeSpec{"snapshot", "snapshot"} }

// BackwardWalk is the prior-art history-file repair (BWD-32-4-4).
func BackwardWalk() Scheme { return schemeSpec{"backward-walk", "backward"} }

// ForwardWalk is the paper's headline realistic repair (FWD-32-4-2 with OBQ
// coalescing, §3.1).
func ForwardWalk() Scheme { return schemeSpec{"forward-walk", "forward-coalesce"} }

// MultiStage is the split-BHT two-stage design with a shared PT (§3.2).
func MultiStage() Scheme { return schemeSpec{"multistage", "multistage"} }

// GenericLocal swaps CBPw-Loop for a generic two-level (Yeh-Patt) local
// predictor under forward-walk repair, demonstrating the paper's claim that
// the repair techniques extend to any local predictor design.
func GenericLocal() Scheme { return schemeSpec{"yehpatt-forward", "yehpatt-forward"} }

// LimitedPC repairs m PCs per misprediction through min(m, 4) BHT write
// ports (§3.3). An m outside 1..1024 fails at simulation time.
func LimitedPC(m int) Scheme {
	name := fmt.Sprintf("limited-%dpc", m)
	return schemeSpec{name, name}
}

// SchemeByName resolves any configuration name — an experiment row's label
// such as forward-4-1-1-coalesce, limited-8pc-invalidate or
// tage57-perfect-CBPw-Loop64, with the paper's defaults optionally left off
// (forward-coalesce). The label is the canonical one.
func SchemeByName(name string) (Scheme, error) {
	s, err := harness.SpecFor(name)
	if err != nil {
		return nil, fmt.Errorf("localbp: %w", err)
	}
	return schemeSpec{s.Label, s.Label}, nil
}

// Observability re-exports: callers interpret CPI stacks and trace events
// through these aliases without importing internal packages.
type (
	// CPIStack is a per-run cycle-accounting breakdown; every simulated
	// cycle is attributed to exactly one bucket. Its String method renders
	// an aligned table.
	CPIStack = obs.CPIStack
	// CPIBucket indexes one CPIStack category.
	CPIBucket = obs.CPIBucket
	// Event is one structured trace event (mispredict, repair, ...).
	Event = obs.Event
	// EventKind discriminates Event values.
	EventKind = obs.EventKind
)

// CPI-stack buckets (see CPIStack.Fraction).
const (
	CPIRetired         = obs.CPIRetired
	CPIFrontendResteer = obs.CPIFrontendResteer
	CPIMemoryBound     = obs.CPIMemoryBound
	CPIRepairBusy      = obs.CPIRepairBusy
	CPIROBFull         = obs.CPIROBFull
	CPILSQFull         = obs.CPILSQFull
	CPIAllocStall      = obs.CPIAllocStall
	// NumCPIBuckets is the bucket count; valid buckets are < NumCPIBuckets.
	NumCPIBuckets = obs.NumCPIBuckets
)

// Event kinds emitted by the tracer.
const (
	EvMispredict   = obs.EvMispredict
	EvEarlyResteer = obs.EvEarlyResteer
	EvRepair       = obs.EvRepair
	EvOBQCoalesce  = obs.EvOBQCoalesce
	EvPrefetchHit  = obs.EvPrefetchHit
)

// Source is the canonical streaming trace contract (see trace.Source):
// FromSource consumes one, OpenTrace builds one from an on-disk LBP2/
// ChampSim file, and trace.NewSliceSource wraps an in-memory stream.
type Source = trace.Source

// OpenTrace opens an on-disk trace (LBP2 or .champsim/.cst external
// format, sniffed automatically; LBP2 is memory-mapped when the platform
// supports it) as a streaming Source. Release it with CloseTrace.
func OpenTrace(path string) (Source, error) { return trace.OpenSource(path) }

// CloseTrace releases a source's open file or mapping; sources without
// resources are a no-op.
func CloseTrace(src Source) error { return trace.CloseSource(src) }

// Option tunes one Simulate/FromSource run.
type Option func(*simConfig)

type simConfig struct {
	ctx       context.Context
	auditOn   bool
	golden    bool
	seed      int64
	seedSet   bool
	warmup    uint64
	cpistack  bool
	counters  bool
	traceCap  int
	observer  func(Event)
	maxCycles int64
}

// WithContext runs the simulation under ctx: cancellation or a deadline
// aborts the run within one cancellation-check stride with a structured
// error (errors.Is matches context.Canceled / context.DeadlineExceeded and
// the core.ErrCanceled sentinel). The wall-clock deadline composes with the
// cycle-domain watchdog (WithMaxCycles): whichever bound trips first wins.
// The context checks are read-only — a run that completes is bit-identical
// to one without a context.
func WithContext(ctx context.Context) Option {
	return func(c *simConfig) { c.ctx = ctx }
}

// WithAudit enables the integrity auditor: read-only invariant checks over
// the core loop and the repair scheme; the first violation aborts the run
// with a structured *audit.IntegrityError.
func WithAudit() Option { return func(c *simConfig) { c.auditOn = true } }

// WithGolden cross-checks every retirement against the timing-free in-order
// golden model of the same trace.
func WithGolden() Option { return func(c *simConfig) { c.golden = true } }

// WithSeed overrides the workload's trace-generation seed. Simulate only:
// FromSource rejects it, since a prepared stream has no seed to override.
func WithSeed(s int64) Option {
	return func(c *simConfig) { c.seed, c.seedSet = s, true }
}

// WithWarmup excludes the first n retired instructions from the reported
// statistics (predictor and cache warmup): IPC, MPKI, Cycles, Insts,
// Branches, Mispredicts, Overrides, OverridesOK and the CPI stack cover only
// what follows it, while Counters and Events cover the whole run. Simulate rejects a warm-up that
// covers its whole run.
func WithWarmup(n uint64) Option { return func(c *simConfig) { c.warmup = n } }

// WithMaxCycles bounds the run's simulated cycles (0 = automatic budget).
func WithMaxCycles(n int64) Option { return func(c *simConfig) { c.maxCycles = n } }

// WithCPIStack enables per-cycle CPI-stack accounting; Result.CPI holds the
// breakdown. The attribution is audited: buckets must sum to total cycles.
func WithCPIStack() Option { return func(c *simConfig) { c.cpistack = true } }

// WithCounters enables the counter registry; Result.Counters holds a
// name → value snapshot across core, memory, OBQ and repair subsystems.
func WithCounters() Option { return func(c *simConfig) { c.counters = true } }

// WithEventTrace enables the structured event tracer with a ring buffer of
// the given capacity (≤ 0 selects 4096); Result.Events holds the retained
// events, oldest first.
func WithEventTrace(capacity int) Option {
	return func(c *simConfig) {
		if capacity <= 0 {
			capacity = 4096
		}
		c.traceCap = capacity
	}
}

// WithObserver streams every trace event to fn as it is emitted (implies
// event tracing). fn runs on the simulation goroutine; keep it cheap.
func WithObserver(fn func(Event)) Option {
	return func(c *simConfig) { c.observer = fn }
}

// Result summarizes one simulation.
type Result struct {
	Scheme      string
	IPC         float64
	MPKI        float64
	Cycles      int64
	Insts       uint64
	Branches    uint64
	Mispredicts uint64
	// Overrides counts local-predictor overrides of TAGE; OverridesOK the
	// ones confirmed correct on the retired path.
	Overrides, OverridesOK uint64

	// CPI is the cycle-accounting breakdown; non-nil only with WithCPIStack.
	CPI *CPIStack
	// Counters is the registry snapshot; non-nil only with WithCounters.
	Counters map[string]uint64
	// Events holds the tracer's retained events (oldest first); non-nil
	// only with WithEventTrace or WithObserver.
	Events []Event
}

// WorkloadInfo identifies a suite workload.
type WorkloadInfo = workloads.Workload

// Workload looks up a suite workload by name (see Workloads).
func Workload(name string) (WorkloadInfo, bool) { return workloads.ByName(name) }

// Workloads returns the full 202-entry evaluation suite (Table 1).
func Workloads() []WorkloadInfo { return workloads.Suite() }

// QuickWorkloads returns the reduced, category-balanced subset.
func QuickWorkloads() []WorkloadInfo { return workloads.QuickSuite() }

// Simulate runs one workload for n instructions on the Table 2 core under
// the given scheme. A trace file replays through FromSource(OpenTrace(path)).
func Simulate(w WorkloadInfo, n int, s Scheme, opts ...Option) (Result, error) {
	var sc simConfig
	for _, o := range opts {
		if o != nil {
			o(&sc)
		}
	}
	if n <= 0 {
		return Result{}, fmt.Errorf("localbp: instruction count %d, want > 0", n)
	}
	if sc.warmup >= uint64(n) {
		return Result{}, fmt.Errorf("localbp: warm-up %d covers the whole %d-instruction run", sc.warmup, n)
	}
	if sc.seedSet {
		w.Seed = sc.seed
	}
	return simulate(trace.NewSliceSource(w.Generate(n)), s, sc)
}

// FromSource runs a prepared streaming source under the given scheme: the
// canonical trace entry point and the one way a trace file is simulated. An
// in-memory source (trace.NewSliceSource) takes the resident-program path
// bit-identically; a file or mmap source (OpenTrace) replays at fixed
// memory. WithSeed is rejected: the stream is already drawn. The caller
// retains ownership of src — sources are stateful and single-consumer, so
// open a fresh one per run and release file-backed sources with CloseTrace.
// A source cannot know its stream's length, so WithWarmup is not checked
// against it: a warm-up that covers the whole stream measures nothing.
func FromSource(src Source, s Scheme, opts ...Option) (Result, error) {
	if src == nil {
		return Result{}, errors.New("localbp: nil source")
	}
	var sc simConfig
	for _, o := range opts {
		if o != nil {
			o(&sc)
		}
	}
	if sc.seedSet {
		return Result{}, errors.New("localbp: WithSeed does not apply to a prepared source")
	}
	return simulate(src, s, sc)
}

func simulate(src Source, s Scheme, sc simConfig) (Result, error) {
	if s == nil {
		return Result{}, errors.New("localbp: nil scheme")
	}
	sp := s.spec()
	spec, err := harness.SpecFor(sp.name)
	if err != nil {
		return Result{}, fmt.Errorf("localbp: %w", err)
	}
	spec.Core.WarmupInsts = sc.warmup
	spec.Core.MaxCycles = sc.maxCycles
	spec.Audit = sc.auditOn
	spec.Golden = sc.golden

	if sc.observer != nil && sc.traceCap == 0 {
		sc.traceCap = 4096 // WithObserver implies event tracing
	}
	var res Result
	if sc.cpistack || sc.counters || sc.traceCap > 0 {
		spec.Obs = &harness.ObsSpec{
			CPIStack: sc.cpistack, Counters: sc.counters,
			TraceCap: sc.traceCap, Observer: sc.observer,
			Done: func(h *obs.Hooks) {
				res.CPI = h.CPI
				if h.Reg != nil {
					res.Counters = h.Reg.Snapshot()
				}
				if h.Tracer != nil {
					res.Events = h.Tracer.Events()
				}
			},
		}
	}
	r, err := harness.Run(sc.ctx, src, spec)
	if err != nil {
		return Result{}, err
	}
	res.Scheme = sp.label
	res.IPC = r.Stats.IPC()
	res.MPKI = r.Stats.MPKI()
	res.Cycles = r.Stats.Cycles
	res.Insts = r.Stats.Insts
	res.Branches = r.Stats.Branches
	res.Mispredicts = r.Stats.Mispredicts
	res.Overrides, res.OverridesOK = r.Overrides, r.OverridesOK
	return res, nil
}
