package harness

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"sync"

	"localbp/internal/metrics"
	"localbp/internal/repair"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// Outcome is one workload × configuration result with repair statistics.
// Err is non-nil when the run failed (panic, watchdog trip, validation);
// the Result then carries only the workload identity with zero metrics.
type Outcome struct {
	Result metrics.Result
	Repair repair.Stats // zero value for the TAGE-only baseline
	Err    *RunError    // nil on success
}

// Runner executes specs over the workload suite, memoizing traces and
// results so that experiments sharing a configuration (most figures share
// the baseline and perfect-repair runs) pay for it once per process.
//
// Workload runs within one spec fan out across Opts.Workers goroutines
// (GOMAXPROCS by default); results are assembled in workload-index order,
// so a suite run is byte-identical regardless of worker count. A run that
// panics or trips the core watchdog yields an Outcome with a structured
// RunError while the rest of the suite completes.
type Runner struct {
	Opts  Options
	Log   io.Writer // optional progress sink
	cache *TraceCache

	mu       sync.Mutex
	memo     map[string][]Outcome
	failures []*RunError
}

// NewRunner builds a runner with the given options.
func NewRunner(o Options) *Runner {
	return &Runner{Opts: o, cache: NewTraceCache(), memo: map[string][]Outcome{}}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format, args...)
	}
}

// Failures returns every RunError recorded so far, in spec-execution order
// and workload order within a spec. Memoized (repeated) spec runs do not
// re-record their failures.
func (r *Runner) Failures() []*RunError {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*RunError, len(r.failures))
	copy(out, r.failures)
	return out
}

// Run executes spec over the whole suite (memoized by spec label) under a
// background context; see RunContext.
func (r *Runner) Run(spec Spec) []Outcome { return r.RunContext(context.Background(), spec) }

// RunContext executes spec over the whole suite (memoized by spec label).
//
// The spec is validated first: a malformed configuration fails every
// outcome with a PhaseValidate RunError before any simulation starts.
// Individual workload failures (panics, stalls) are isolated into their
// Outcome.Err; the remaining workloads still produce results. A failed run
// is not re-attempted: the simulation is deterministic, so it would fail the
// same way again.
//
// Cancelling ctx drains the worker pool: every not-yet-started workload
// (and any run in flight, within one cancellation-check stride) yields a
// ClassCanceled outcome, and the partially-run spec is NOT memoized — a
// later RunContext with a live context re-runs it in full.
func (r *Runner) RunContext(ctx context.Context, spec Spec) []Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	r.mu.Lock()
	if out, ok := r.memo[spec.Label]; ok {
		r.mu.Unlock()
		return out
	}
	r.mu.Unlock()

	if r.Opts.Warmup > 0 {
		spec.Core.WarmupInsts = uint64(r.Opts.Warmup)
	}
	ws := r.Opts.suite()
	out := make([]Outcome, len(ws))

	if err := spec.Validate(); err != nil {
		for i, w := range ws {
			out[i].Result = metrics.Result{Workload: w.Name, Category: w.Category.String()}
			out[i].Err = &RunError{Workload: w.Name, SpecLabel: spec.Label,
				Phase: PhaseValidate, Err: err, Class: ClassFailed}
		}
		r.finish(ctx, spec, out)
		return out
	}

	workers := min(r.Opts.workers(), len(ws))
	r.logf("running %-28s (%d workloads × %d insts, %d workers)\n",
		spec.Label, len(ws), r.Opts.Insts, workers)

	idx := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = r.runOne(ctx, i, ws[i], spec)
			}
		}()
	}
	for i := range ws {
		idx <- i
	}
	close(idx)
	wg.Wait()

	r.finish(ctx, spec, out)
	return out
}

// runOne executes one workload under spec and classifies any failure. Only
// the sweep context's own cancellation makes a run ClassCanceled: a
// per-run RunTimeout that expires while the sweep is live is a failure.
func (r *Runner) runOne(ctx context.Context, i int, w workloads.Workload, spec Spec) Outcome {
	if err := ctx.Err(); err != nil {
		return Outcome{
			Result: metrics.Result{Workload: w.Name, Category: w.Category.String()},
			Err: &RunError{Workload: w.Name, SpecLabel: spec.Label, Phase: PhaseCanceled,
				Err: err, Class: ClassCanceled},
		}
	}
	o := r.simulateOne(ctx, i, w, spec)
	if o.Err != nil {
		o.Err.Class = ClassFailed
		if ctx.Err() != nil && isCancellation(o.Err.Err) {
			o.Err.Class = ClassCanceled
		}
	}
	return o
}

// simulateOne executes one workload under spec, converting panics and
// watchdog errors into a structured Outcome.Err. The deferred recover is the
// isolation boundary: a panicking predictor, scheme or core kills only this
// outcome, not the sweep. Workload index i drives the deterministic audit
// sample (Options.AuditSample): audited runs report bit-identical metrics,
// so sampling composes with memoization.
func (r *Runner) simulateOne(ctx context.Context, i int, w workloads.Workload, spec Spec) (o Outcome) {
	if n := r.Opts.AuditSample; n > 0 && i%n == 0 {
		spec.Audit, spec.Golden = true, true
	}
	o.Result = metrics.Result{Workload: w.Name, Category: w.Category.String()}
	phase := PhaseGenerate
	defer func() {
		if p := recover(); p != nil {
			o.Repair = repair.Stats{}
			o.Result = metrics.Result{Workload: w.Name, Category: w.Category.String()}
			o.Err = &RunError{
				Workload:  w.Name,
				SpecLabel: spec.Label,
				Phase:     phase,
				Err:       fmt.Errorf("panic: %v", p),
				Stack:     string(debug.Stack()),
			}
		}
	}()

	tr, track, err := r.cache.getTracked(w, r.Opts.Insts, spec.Core.Mem)
	if err != nil {
		o.Err = &RunError{Workload: w.Name, SpecLabel: spec.Label, Phase: PhaseGenerate, Err: err}
		return o
	}
	spec.memTrack = track

	phase = PhaseSimulate
	if spec.preRun != nil {
		spec.preRun(w.Name)
	}
	actx := ctx
	if r.Opts.RunTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.Opts.RunTimeout)
		defer cancel()
	}
	res, err := Run(actx, trace.NewSliceSource(tr), spec)
	if err != nil {
		o.Err = &RunError{Workload: w.Name, SpecLabel: spec.Label, Phase: PhaseSimulate, Err: err}
		return o
	}
	o.Result.IPC = res.Stats.IPC()
	o.Result.MPKI = res.Stats.MPKI()
	o.Result.TageMPKI = res.Stats.TageMPKI()
	if res.Repair != nil {
		o.Repair = *res.Repair
	}
	return o
}

// finish memoizes the outcomes, records failures in workload order, and
// logs the N/M degradation summary when any run failed. A canceled run
// poisons neither the memo nor the failure record: the spec re-runs in
// full under a live context, and cancellations are not failures.
func (r *Runner) finish(ctx context.Context, spec Spec, out []Outcome) {
	var failed []*RunError
	canceled := 0
	for i := range out {
		e := out[i].Err
		if e == nil {
			continue
		}
		if e.Class == ClassCanceled {
			canceled++
			continue
		}
		failed = append(failed, e)
	}
	r.mu.Lock()
	if ctx.Err() == nil && canceled == 0 {
		r.memo[spec.Label] = out
	}
	r.failures = append(r.failures, failed...)
	r.mu.Unlock()
	if len(failed) > 0 {
		r.logf("spec %s: %d/%d workload runs FAILED (first: %v)\n",
			spec.Label, len(failed), len(out), failed[0].Err)
	}
	if canceled > 0 {
		r.logf("spec %s: %d/%d workload runs canceled (spec not memoized)\n",
			spec.Label, canceled, len(out))
	}
}

// Results extracts the metrics side of Run.
func (r *Runner) Results(spec Spec) []metrics.Result {
	return r.ResultsContext(context.Background(), spec)
}

// ResultsContext extracts the metrics side of RunContext.
func (r *Runner) ResultsContext(ctx context.Context, spec Spec) []metrics.Result {
	out := r.RunContext(ctx, spec)
	rs := make([]metrics.Result, len(out))
	for i := range out {
		rs[i] = out[i].Result
	}
	return rs
}

// helpers shared by the experiment definitions

func ipcs(rs []metrics.Result) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = rs[i].IPC
	}
	return out
}

func mpkis(rs []metrics.Result) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = rs[i].MPKI
	}
	return out
}

// mpkiReduction returns the suite-mean MPKI reduction of exp over base (%).
func mpkiReduction(base, exp []metrics.Result) float64 {
	return metrics.MeanReduction(mpkis(base), mpkis(exp))
}

// ipcGain returns the geomean IPC gain of exp over base (%).
func ipcGain(base, exp []metrics.Result) float64 {
	return metrics.IPCGainPct(ipcs(base), ipcs(exp))
}

// byCategoryMPKI computes per-category MPKI reductions.
func byCategoryMPKI(base, exp []metrics.Result) ([]string, []float64, error) {
	return metrics.ByCategory(base, exp,
		func(r metrics.Result) float64 { return r.MPKI }, metrics.MeanReduction)
}

// byCategoryIPC computes per-category geomean IPC gains.
func byCategoryIPC(base, exp []metrics.Result) ([]string, []float64, error) {
	return metrics.ByCategory(base, exp,
		func(r metrics.Result) float64 { return r.IPC },
		func(a, b []float64) float64 { return metrics.IPCGainPct(a, b) })
}
