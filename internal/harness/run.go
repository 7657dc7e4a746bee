// Package harness wires workloads, predictors, repair schemes and the core
// model into the experiments of the paper: one function per figure/table
// (fig4 … fig14b, table1 … table3). The lbpsweep command drives it.
package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"localbp/internal/audit"
	"localbp/internal/bpu"
	"localbp/internal/bpu/tage"
	"localbp/internal/core"
	"localbp/internal/mem"
	"localbp/internal/obs"
	"localbp/internal/repair"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// SchemeMaker builds a fresh repair scheme per run (schemes hold state).
// A nil maker means the TAGE-only baseline.
type SchemeMaker func() repair.Scheme

// Spec describes one configuration to simulate.
type Spec struct {
	Label  string
	Tage   tage.Config
	Scheme SchemeMaker
	Oracle bool
	Core   core.Config

	// Audit enables the integrity auditor: core-loop and scheme-level
	// invariant checks whose first violation aborts the run with a
	// structured audit.IntegrityError. All checks are read-only, so an
	// audited run reports bit-identical statistics.
	Audit bool
	// Golden enables the differential oracle: every retirement is
	// cross-checked against a timing-free in-order execution of the trace.
	Golden bool

	// Obs, when non-nil, enables the observability layer: every run builds
	// a fresh obs.Hooks (so concurrent runs never share counter or tracer
	// state) and hands it to Obs.Done after a successful simulation.
	Obs *ObsSpec

	// preRun, when set, is invoked at the start of every workload run with
	// the workload name. It exists for the panic-isolation tests (a hook
	// that panics for one workload exercises the runner's recover boundary)
	// and is deliberately unexported.
	preRun func(workload string)

	// memTrack, when non-nil, is the trace's memory-outcome track under
	// Core.Mem (core.MemTrack): a run over an in-memory trace is handed it
	// (core.NewReplay) and starts no producer goroutine to probe the
	// hierarchy. The Runner sets it from its TraceCache so a sweep probes
	// the hierarchy once per trace.
	memTrack []mem.Outcome
}

// ObsSpec selects which observability instruments a spec's runs carry.
// Each run gets its own obs.Hooks; under the parallel Runner, Done may be
// invoked from multiple goroutines and must be safe for concurrent use.
type ObsSpec struct {
	CPIStack bool // per-cycle CPI-stack attribution (audited: must sum to cycles)
	Counters bool // counter registry across core/mem/obq/repair
	TraceCap int  // event-tracer ring capacity; 0 disables tracing
	// Observer, when set with TraceCap > 0, streams every event as emitted.
	Observer func(obs.Event)
	// Done receives the run's hooks after a successful simulation; take
	// counter snapshots here.
	Done func(h *obs.Hooks)
}

// hooks builds one run's observability instruments.
func (o *ObsSpec) hooks() *obs.Hooks {
	h := &obs.Hooks{}
	if o.CPIStack {
		h.CPI = obs.NewCPIStack()
	}
	if o.Counters {
		h.Reg = obs.NewRegistry()
	}
	if o.TraceCap > 0 {
		h.Tracer = obs.NewTracer(o.TraceCap)
		h.Tracer.Observer = o.Observer
	}
	return h
}

// Validate checks everything about the spec that can fail before simulation
// starts: the label, the TAGE and core configurations, and — by trial
// construction — the repair scheme (which validates its loop.Config). All
// violations are reported at once with field-level messages.
func (s Spec) Validate() error {
	var errs []error
	if s.Label == "" {
		errs = append(errs, errors.New("spec: empty Label"))
	}
	if err := s.Tage.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := s.Core.Validate(); err != nil {
		errs = append(errs, err)
	}
	if s.Scheme != nil {
		if err := trialScheme(s.Scheme); err != nil {
			errs = append(errs, err)
		}
	}
	if s.Obs != nil && s.Obs.TraceCap < 0 {
		errs = append(errs, fmt.Errorf("spec: Obs.TraceCap: got %d, want >= 0", s.Obs.TraceCap))
	}
	return errors.Join(errs...)
}

// trialScheme constructs one throwaway scheme instance, converting a
// constructor panic (loop/repair geometry validation) into an error.
func trialScheme(mk SchemeMaker) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("spec: scheme construction panicked: %v", p)
		}
	}()
	if mk() == nil {
		return errors.New("spec: scheme maker returned nil (use a nil Scheme for the baseline)")
	}
	return nil
}

// Result is what one Run reports.
type Result struct {
	Stats core.Stats
	// Repair is the scheme's repair statistics; nil for the TAGE-only
	// baseline. Like Stats, it and the override counts exclude the
	// warm-up (Core.WarmupInsts).
	Repair *repair.Stats
	// Scheme is the scheme's name as run, decorators included, and
	// StorageBits its local-predictor plus repair storage ("" and 0 for the
	// baseline).
	Scheme      string
	StorageBits int
	// Overrides counts local-predictor overrides of TAGE; OverridesOK the
	// ones confirmed correct on the retired path.
	Overrides, OverridesOK uint64
	// Mem is the memory hierarchy's access and miss counts.
	Mem MemStats
	// AuditChecks counts the integrity auditor's checks (0 when unaudited).
	AuditChecks uint64
}

// MemStats is a run's memory-hierarchy access and miss counts.
type MemStats struct {
	Accesses, L1Misses, L2Misses, LLCMisses uint64
}

// forceAudit reports whether LBP_AUDIT=1 is set: the `make audit` hook that
// runs the whole tier-1 suite with the auditor and golden model enabled.
var forceAudit = sync.OnceValue(func() bool { return os.Getenv("LBP_AUDIT") == "1" })

// Run simulates src under spec. It is the one place a scheme is decorated
// (observability registration, then the auditor) and a bpu.Unit and core
// are built, so the sweeps, the localbp facade and the CLIs all measure the
// same pipeline. An in-memory source
// (trace.NewSliceSource) takes the resident-program path; a file or mmap
// source replays through the core's sliding window at fixed memory.
//
// A watchdog trip, integrity violation or cancellation returns an error
// (match with errors.Is against core.ErrStalled, audit.ErrIntegrity or
// context.Canceled / context.DeadlineExceeded) along with the core stats
// reached so far; ctx nil means context.Background(). The context checks
// are read-only, so a run that completes is bit-identical to one without a
// context. The golden oracle needs the whole trace resident, so spec.Golden
// on a true streaming source is an error; the LBP_AUDIT=1 force keeps the
// auditor and skips only the oracle for such sources.
//
// Every load and store takes its outcome from a memory track: spec's
// cached track when the Runner set one, otherwise the track the core's
// producer goroutine fills while the core simulates. Run recycles the
// core's track buffer before it returns. The caller retains ownership of
// src (closing, single-consumer discipline).
func Run(ctx context.Context, src trace.Source, spec Spec) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	goldenExplicit := spec.Golden
	if forceAudit() {
		spec.Audit, spec.Golden = true, true
	}
	var scheme repair.Scheme
	if spec.Scheme != nil {
		scheme = spec.Scheme()
	}
	cfg := spec.Core
	var hooks *obs.Hooks
	if spec.Obs != nil {
		hooks = spec.Obs.hooks()
		cfg.Obs = hooks
		if scheme != nil {
			// Register the raw scheme before the auditor wraps it: the
			// wrapper forwards behaviour, not registration.
			repair.AttachObs(scheme, hooks.Reg, hooks.Tracer)
		}
	}
	var aud *audit.Auditor
	if spec.Audit {
		aud = audit.New()
		cfg.Audit = aud
		if scheme != nil {
			scheme = audit.WrapScheme(scheme, aud)
		}
	}
	tr, resident := trace.SourceSlice(src)
	if spec.Golden && cfg.Golden == nil {
		// A caller-provided golden model (spec.Core.Golden) wins: tests use
		// it to feed the oracle a deliberately divergent program.
		if resident {
			cfg.Golden = audit.NewGolden(tr)
		} else if goldenExplicit {
			return Result{}, errors.New(
				"harness: the golden oracle needs the whole trace in memory; streaming sources support Audit only")
		}
		// Forced (LBP_AUDIT=1) golden on a streaming source: keep the
		// auditor, skip the oracle.
	}
	unit := bpu.NewUnit(spec.Tage, scheme)
	unit.Oracle = spec.Oracle
	var c *core.Core
	if resident && spec.memTrack != nil {
		c = core.NewReplay(cfg, unit, tr, spec.memTrack)
	} else {
		var err error
		if c, err = core.NewStream(cfg, unit, src); err != nil {
			return Result{}, err
		}
	}
	defer c.Recycle()
	st, err := c.RunContext(ctx)
	if err != nil {
		return Result{Stats: st}, err
	}
	if hooks != nil && spec.Obs.Done != nil {
		spec.Obs.Done(hooks)
	}
	// Like st, the repair and override counts cover the measured
	// instructions only: subtract what they held at the warm-up point.
	res := Result{Stats: st}
	warmRepair, warmOv, warmOvOK := c.WarmCounts()
	res.Overrides, res.OverridesOK = unit.OverrideStats()
	res.Overrides -= warmOv
	res.OverridesOK -= warmOvOK
	m := &res.Mem
	m.Accesses, m.L1Misses, m.L2Misses, m.LLCMisses = c.Mem().Stats()
	if scheme != nil {
		rst := scheme.Stats().Sub(warmRepair)
		res.Repair = &rst
		res.Scheme = scheme.Name()
		res.StorageBits = scheme.StorageBits()
	}
	if aud != nil {
		res.AuditChecks = aud.Checks()
	}
	return res, nil
}

// Options controls suite-level experiment execution.
type Options struct {
	Insts   int  // instructions per workload
	Quick   bool // use the reduced suite
	Warmup  int  // leading retired instructions excluded from statistics
	Workers int  // concurrent workload runs; 0 means GOMAXPROCS

	// AuditSample enables the integrity auditor and golden model on every
	// Nth workload (by suite index) of every spec: a deterministic,
	// cheap sample of fully-verified runs inside an ordinary sweep. 0
	// disables sampling; 1 audits everything. Audited runs report
	// bit-identical statistics, so memoized results are unaffected.
	AuditSample int
}

// Validate checks the options before any run: Insts must be positive,
// Warmup non-negative and below Insts (a warm-up that covers the whole run
// leaves nothing to measure), and Workers and AuditSample non-negative. All
// violations are reported at once.
func (o Options) Validate() error {
	var errs []error
	if o.Insts <= 0 {
		errs = append(errs, fmt.Errorf("options: Insts: got %d, want > 0", o.Insts))
	}
	if o.Warmup < 0 {
		errs = append(errs, fmt.Errorf("options: Warmup: got %d, want >= 0", o.Warmup))
	} else if o.Insts > 0 && o.Warmup >= o.Insts {
		errs = append(errs, fmt.Errorf("options: Warmup: got %d, want < Insts (%d)", o.Warmup, o.Insts))
	}
	if o.Workers < 0 {
		errs = append(errs, fmt.Errorf("options: Workers: got %d, want >= 0", o.Workers))
	}
	if o.AuditSample < 0 {
		errs = append(errs, fmt.Errorf("options: AuditSample: got %d, want >= 0", o.AuditSample))
	}
	return errors.Join(errs...)
}

// DefaultOptions balances fidelity and single-CPU runtime.
func DefaultOptions() Options { return Options{Insts: 120_000} }

// suite returns the selected workload list.
func (o Options) suite() []workloads.Workload {
	if o.Quick {
		return workloads.QuickSuite()
	}
	return workloads.Suite()
}

// workers resolves the worker-pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// traceKey identifies one cached trace: workload × instruction count.
type traceKey struct {
	name  string
	insts int
}

// traceEntry is one cache slot; once ensures a trace is generated exactly
// one time even when several workers request it concurrently (the others
// block in Do until generation finishes). trackOnce does the same for the
// trace's memory-outcome track, built for trackCfg, the hierarchy
// configuration of the first getTracked.
type traceEntry struct {
	once sync.Once
	tr   []trace.Inst
	err  error

	trackOnce sync.Once
	trackCfg  mem.HierarchyConfig
	track     []mem.Outcome
}

// TraceCache memoizes generated workload traces across configurations so a
// sweep generates each (workload, insts) pair once and, through getTracked,
// simulates its memory hierarchy once. It is safe for concurrent use by
// multiple goroutines.
type TraceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{entries: map[traceKey]*traceEntry{}}
}

// Get returns the trace for w at n instructions, generating and validating
// it on first use. Concurrent callers for the same key share one
// generation; different keys generate in parallel.
func (tc *TraceCache) Get(w workloads.Workload, n int) ([]trace.Inst, error) {
	e, err := tc.entry(w, n)
	if err != nil {
		return nil, err
	}
	return e.tr, nil
}

// getTracked is Get plus the trace's memory-outcome track under cfg. The
// track is built once per cached trace, for the configuration of the first
// request; a request under any other configuration gets a nil track, and
// its run's own producer probes the hierarchy.
func (tc *TraceCache) getTracked(w workloads.Workload, n int, cfg mem.HierarchyConfig) ([]trace.Inst, []mem.Outcome, error) {
	e, err := tc.entry(w, n)
	if err != nil {
		return nil, nil, err
	}
	e.trackOnce.Do(func() {
		e.trackCfg = cfg
		e.track = core.MemTrack(cfg, e.tr)
	})
	if e.trackCfg != cfg {
		return e.tr, nil, nil
	}
	return e.tr, e.track, nil
}

// entry returns the cache slot for w at n instructions once its generation
// has succeeded.
func (tc *TraceCache) entry(w workloads.Workload, n int) (*traceEntry, error) {
	k := traceKey{name: w.Name, insts: n}
	tc.mu.Lock()
	e, ok := tc.entries[k]
	if !ok {
		e = &traceEntry{}
		tc.entries[k] = e
	}
	tc.mu.Unlock()
	e.once.Do(func() {
		if n <= 0 {
			e.err = fmt.Errorf("trace length: got %d instructions, want > 0", n)
			return
		}
		tr := w.Generate(n)
		if err := trace.Validate(tr); err != nil {
			e.err = err
			return
		}
		e.tr = tr
	})
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}
