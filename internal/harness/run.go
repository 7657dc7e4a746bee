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
	"time"

	"localbp/internal/audit"
	"localbp/internal/bpu"
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/core"
	"localbp/internal/faultinject"
	"localbp/internal/mem"
	"localbp/internal/metrics"
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
	// AuditInterval overrides the auditor's structural-scan stride in
	// cycles/events (0 selects audit.DefaultInterval).
	AuditInterval int64
	// Inject, when non-nil, wraps the scheme with deterministic fault
	// injection (robustness testing; see internal/faultinject).
	Inject *faultinject.Config

	// Obs, when non-nil, enables the observability layer: every run builds
	// a fresh obs.Hooks (so concurrent runs never share counter or tracer
	// state) and hands it to Obs.Done after a successful simulation.
	Obs *ObsSpec

	// preRun, when set, is invoked at the start of every workload run with
	// the workload name. It exists for fault-injection tests (a hook that
	// panics for one workload exercises the runner's panic isolation) and
	// is deliberately unexported.
	preRun func(workload string)

	// memTrack, when non-nil, is the trace's memory-outcome track under
	// Core.Mem (core.MemTrack): a run over an in-memory trace replays it
	// instead of simulating the hierarchy. The Runner sets it from its
	// TraceCache so a sweep simulates the hierarchy once per trace.
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
	// Done receives the run's hooks after a successful simulation.
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
	if s.Inject != nil {
		if err := s.Inject.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if s.AuditInterval < 0 {
		errs = append(errs, fmt.Errorf("spec: AuditInterval: got %d, want >= 0", s.AuditInterval))
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

// BaselineSpec is the TAGE-only Table 2 baseline.
func BaselineSpec() Spec {
	return Spec{Label: "tage", Tage: tage.KB8(), Core: core.DefaultConfig()}
}

// PerfectSpec is CBPw-Loop with perfect instantaneous repair.
func PerfectSpec(cfg loop.Config) Spec {
	s := BaselineSpec()
	s.Label = "perfect-" + cfg.Name
	s.Scheme = func() repair.Scheme { return repair.NewPerfect(cfg) }
	return s
}

// RunTrace simulates one prepared trace under spec and returns core stats.
// Failures (watchdog, integrity) panic with their structured error;
// fault-tolerant callers use RunTraceChecked.
func RunTrace(tr []trace.Inst, spec Spec) core.Stats {
	st, _, err := RunTraceChecked(tr, spec)
	if err != nil {
		panic(err)
	}
	return st
}

// RunTraceFull simulates one trace and returns core stats plus the scheme's
// repair stats (nil for the baseline). A failed run returns a structured
// *RunError instead of panicking.
func RunTraceFull(tr []trace.Inst, spec Spec) (core.Stats, *repair.Stats, error) {
	st, rst, err := RunTraceChecked(tr, spec)
	if err != nil {
		return st, rst, &RunError{SpecLabel: spec.Label, Phase: PhaseSimulate, Err: err}
	}
	return st, rst, nil
}

// forceAudit reports whether LBP_AUDIT=1 is set: the `make audit` hook that
// runs the whole tier-1 suite with the auditor and golden model enabled.
// Fault-injection runs are exempt — their state is corrupted on purpose, so
// auditing them would (correctly) flag the injected damage and defeat the
// graceful-degradation tests.
var forceAudit = sync.OnceValue(func() bool { return os.Getenv("LBP_AUDIT") == "1" })

// RunTraceChecked simulates one trace under spec, converting a core
// watchdog trip or integrity violation into an error (match with
// errors.Is against core.ErrStalled / audit.ErrIntegrity) instead of an
// infinite loop or panic. Repair stats are nil for the baseline.
func RunTraceChecked(tr []trace.Inst, spec Spec) (core.Stats, *repair.Stats, error) {
	return RunTraceContext(context.Background(), tr, spec)
}

// RunTraceContext is RunTraceChecked under a context: cancellation or a
// deadline aborts the simulation within one cancellation-check stride with
// an error matching context.Canceled / context.DeadlineExceeded /
// core.ErrCanceled. The context checks are read-only — a run that completes
// is bit-identical to RunTraceChecked.
func RunTraceContext(ctx context.Context, tr []trace.Inst, spec Spec) (core.Stats, *repair.Stats, error) {
	return RunSourceContext(ctx, trace.NewSliceSource(tr), spec)
}

// RunSourceContext is RunTraceContext over a streaming trace.Source: an
// in-memory source takes the resident-program path bit-identically, while a
// file or mmap source replays through the core's sliding window at fixed
// memory. The golden oracle needs the whole trace resident, so spec.Golden on
// a true streaming source is an error; the LBP_AUDIT=1 force keeps the
// auditor and skips only the oracle for such sources. The caller retains
// ownership of src (closing, single-consumer discipline).
func RunSourceContext(ctx context.Context, src trace.Source, spec Spec) (core.Stats, *repair.Stats, error) {
	goldenExplicit := spec.Golden
	if forceAudit() && spec.Inject == nil {
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
			// Register the raw scheme before any decorator wraps it: the
			// inject/audit wrappers forward behaviour, not registration.
			repair.AttachObs(scheme, hooks.Reg, hooks.Tracer)
		}
	}
	var inj *faultinject.Injector
	if spec.Inject != nil {
		var err error
		inj, err = faultinject.New(*spec.Inject)
		if err != nil {
			return core.Stats{}, nil, err
		}
		if scheme != nil {
			scheme = inj.Wrap(scheme)
		}
	}
	if spec.Audit {
		aud := audit.New()
		aud.Interval = spec.AuditInterval
		cfg.Audit = aud
		if scheme != nil {
			// Injection innermost, audit outermost: the auditor observes
			// the faulted scheme exactly as the pipeline does.
			scheme = audit.WrapScheme(scheme, aud)
		}
	}
	if spec.Golden && cfg.Golden == nil {
		// A caller-provided golden model (spec.Core.Golden) wins: tests use
		// it to feed the oracle a deliberately divergent program.
		if tr, ok := trace.SourceSlice(src); ok {
			cfg.Golden = audit.NewGolden(tr)
		} else if goldenExplicit {
			return core.Stats{}, nil, errors.New(
				"harness: the golden oracle needs the whole trace in memory; streaming sources support Audit only")
		}
		// Forced (LBP_AUDIT=1) golden on a streaming source: keep the
		// auditor, skip the oracle.
	}
	unit := bpu.NewUnit(spec.Tage, scheme)
	unit.Oracle = spec.Oracle
	if inj != nil {
		inj.AttachTAGE(unit.Tage)
	}
	var c *core.Core
	if tr, ok := trace.SourceSlice(src); ok && spec.memTrack != nil {
		c = core.NewReplay(cfg, unit, tr, spec.memTrack)
	} else {
		var err error
		if c, err = core.NewStream(cfg, unit, src); err != nil {
			return core.Stats{}, nil, err
		}
	}
	st, err := c.RunContext(ctx)
	if err != nil {
		return st, nil, err
	}
	if hooks != nil && spec.Obs.Done != nil {
		spec.Obs.Done(hooks)
	}
	if scheme != nil {
		return st, scheme.Stats(), nil
	}
	return st, nil, nil
}

// Options controls suite-level experiment execution.
type Options struct {
	Insts   int  // instructions per workload
	Quick   bool // use the reduced suite
	Warmup  int  // leading retired instructions excluded from statistics
	Workers int  // concurrent workload runs; <= 0 means GOMAXPROCS

	// AuditSample enables the integrity auditor and golden model on every
	// Nth workload (by suite index) of every spec: a deterministic,
	// cheap sample of fully-verified runs inside an ordinary sweep. 0
	// disables sampling; 1 audits everything. Audited runs report
	// bit-identical statistics, so memoized results are unaffected.
	AuditSample int

	// Retries is how many times a ClassTransient failure (stall, integrity
	// trip, panic, injected chaos fault) is re-attempted per workload run.
	// Retries reuse the cached trace and build a fresh scheme, so a retried
	// run that succeeds is bit-identical to one that succeeded first try.
	// Permanent and canceled failures are never retried.
	Retries int

	// RunTimeout, when > 0, bounds each workload attempt's wall-clock time
	// via a per-attempt context deadline. It composes with the core's
	// cycle-domain watchdog: whichever trips first aborts the attempt.
	RunTimeout time.Duration

	// Backoff, when non-nil, returns the delay before retry attempt
	// `attempt` (1-based: the delay before the second attempt has
	// attempt=1) of spec × workload. The sleep respects the run context.
	// Nil means retry immediately.
	Backoff func(spec, workload string, attempt int) time.Duration

	// Chaos, when non-nil, deterministically fails the leading attempts of
	// selected runs with ErrInjected (see ChaosPlan) to exercise the retry
	// machinery; with Retries >= Chaos.MaxFaults every run still completes,
	// bit-identically to an un-chaosed sweep.
	Chaos *ChaosPlan
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

// RunSuite simulates every workload under spec, reusing pre-generated traces
// when provided via cache (keyed by workload name and length). A failed
// workload yields a zero-metric Result and a structured *RunError; the rest
// of the suite still runs, and the joined errors are returned alongside.
// Context cancellation stops the remaining workloads with ClassCanceled
// RunErrors. Sweeps wanting memoization and parallelism use Runner.RunContext.
func RunSuite(ctx context.Context, o Options, spec Spec, cache *TraceCache) ([]metrics.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ws := o.suite()
	out := make([]metrics.Result, len(ws))
	var errs []error
	for i, w := range ws {
		out[i] = metrics.Result{Workload: w.Name, Category: w.Category.String()}
		if err := ctx.Err(); err != nil {
			errs = append(errs, &RunError{Workload: w.Name, SpecLabel: spec.Label,
				Phase: PhaseCanceled, Err: err, Class: ClassCanceled, Attempts: 0})
			continue
		}
		tr, err := cache.Get(w, o.Insts)
		if err != nil {
			errs = append(errs, &RunError{Workload: w.Name, SpecLabel: spec.Label,
				Phase: PhaseGenerate, Err: err, Class: ClassPermanent, Attempts: 1})
			continue
		}
		st, _, err := RunTraceContext(ctx, tr, spec)
		if err != nil {
			re := &RunError{Workload: w.Name, SpecLabel: spec.Label, Phase: PhaseSimulate, Err: err, Attempts: 1}
			re.Class = Classify(re)
			errs = append(errs, re)
			continue
		}
		out[i].IPC = st.IPC()
		out[i].MPKI = st.MPKI()
		out[i].TageMPKI = st.TageMPKI()
	}
	return out, errors.Join(errs...)
}

// traceKey identifies one cached trace. Generated workloads key by
// workload × instruction count; file-backed workloads additionally key by
// (path, mtime, size), so a trace file regenerated on disk is re-read
// instead of served stale.
type traceKey struct {
	name  string
	insts int
	path  string
	mtime int64 // file modification time, UnixNano (0 for generated)
	size  int64 // file size in bytes (0 for generated)
}

// keyFor builds the cache key, statting file-backed workloads.
func keyFor(w workloads.Workload, n int) (traceKey, error) {
	k := traceKey{name: w.Name, insts: n}
	if w.TraceFile != "" {
		st, err := os.Stat(w.TraceFile)
		if err != nil {
			return k, fmt.Errorf("harness: stat trace file: %w", err)
		}
		k.path = w.TraceFile
		k.mtime = st.ModTime().UnixNano()
		k.size = st.Size()
	}
	return k, nil
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
// simulates its memory hierarchy once. It recycles released trace buffers so
// sequential single-use patterns (generate, simulate, release, next
// workload) reuse one flat []trace.Inst chunk instead of allocating per
// workload. It is safe for concurrent use by multiple goroutines.
type TraceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	spare   [][]trace.Inst // released generation buffers, ready for reuse
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{entries: map[traceKey]*traceEntry{}}
}

// takeSpare pops a recycled generation buffer (nil when none is parked).
func (tc *TraceCache) takeSpare() []trace.Inst {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if n := len(tc.spare); n > 0 {
		buf := tc.spare[n-1]
		tc.spare = tc.spare[:n-1]
		return buf
	}
	return nil
}

// Get returns the trace for w at n instructions, generating (or, for
// file-backed workloads, reading and validating the file) on first use.
// Generation decodes into a recycled buffer when one is available (see
// Release). Concurrent callers for the same key share one generation;
// different keys generate in parallel. A file-backed workload's key includes
// the file's (path, mtime, size), so a regenerated file is re-read.
func (tc *TraceCache) Get(w workloads.Workload, n int) ([]trace.Inst, error) {
	e, err := tc.entry(w, n)
	if err != nil {
		return nil, err
	}
	return e.tr, nil
}

// getTracked is Get plus the trace's memory-outcome track under cfg. The
// track is built once per cached trace, for the configuration of the first
// request; a request under any other configuration gets a nil track and
// runs live. Release drops the track with the trace.
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
// (or file read) has succeeded.
func (tc *TraceCache) entry(w workloads.Workload, n int) (*traceEntry, error) {
	k, err := keyFor(w, n)
	if err != nil {
		return nil, err
	}
	tc.mu.Lock()
	e, ok := tc.entries[k]
	if !ok {
		e = &traceEntry{}
		tc.entries[k] = e
	}
	tc.mu.Unlock()
	e.once.Do(func() {
		if w.TraceFile != "" {
			e.tr, e.err = readFileTrace(w, n)
			return
		}
		if n <= 0 {
			e.err = fmt.Errorf("trace length: got %d instructions, want > 0", n)
			return
		}
		tr := w.GenerateInto(tc.takeSpare(), n)
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

// readFileTrace materializes a file-backed workload's stream (capped at n
// when n > 0) and validates it.
func readFileTrace(w workloads.Workload, n int) ([]trace.Inst, error) {
	src, err := w.Open(n)
	if err != nil {
		return nil, err
	}
	defer trace.CloseSource(src)
	tr, err := trace.ReadAll(src)
	if err != nil {
		return nil, err
	}
	if err := trace.Validate(tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// GetSource returns a streaming source for w at n instructions. Sources are
// stateful and single-consumer, so every call hands out a fresh one:
// generated workloads serve a zero-copy SliceSource over the cached trace,
// file-backed workloads open the file anew (fixed-memory replay; the key
// discipline of Get does not apply because nothing is cached). Close
// file-backed sources with trace.CloseSource.
func (tc *TraceCache) GetSource(w workloads.Workload, n int) (trace.Source, error) {
	if w.TraceFile != "" {
		return w.Open(n)
	}
	tr, err := tc.Get(w, n)
	if err != nil {
		return nil, err
	}
	return trace.NewSliceSource(tr), nil
}

// Release evicts the cached trace for w at n instructions, with its memory
// track, and parks its buffer for reuse by a later generation. Only call it
// when no simulation still holds the slice returned by Get — the next Get
// for any workload may overwrite its contents in place.
func (tc *TraceCache) Release(w workloads.Workload, n int) {
	k, err := keyFor(w, n)
	if err != nil {
		return // the file vanished; nothing cached under its current stamp
	}
	tc.mu.Lock()
	e, ok := tc.entries[k]
	if ok {
		delete(tc.entries, k)
	}
	tc.mu.Unlock()
	if !ok {
		return
	}
	// Synchronize with a concurrent generation: Do blocks until the first
	// call completes, establishing the happens-before for reading e.tr.
	e.once.Do(func() {})
	if e.tr == nil {
		return
	}
	tc.mu.Lock()
	tc.spare = append(tc.spare, e.tr[:0])
	tc.mu.Unlock()
}
