package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"localbp/internal/bpu/loop"
	"localbp/internal/core"
	"localbp/internal/workloads"
)

// TestParallelDeterminism: a suite run with 1 worker and with N workers must
// produce identical []Outcome slices — parallelism is a throughput knob, not
// a result knob.
func TestParallelDeterminism(t *testing.T) {
	specs := []Spec{BaselineSpec(), mustSpecFor("forward-coalesce")}
	for _, spec := range specs {
		serial := NewRunner(Options{Insts: 20_000, Quick: true, Workers: 1})
		parallel := NewRunner(Options{Insts: 20_000, Quick: true, Workers: 8})
		a := serial.Run(spec)
		b := parallel.Run(spec)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("spec %s: outcomes differ between 1 and 8 workers", spec.Label)
		}
	}
}

// TestPanicIsolation: an injected panic in one workload run yields a
// structured RunError naming the workload and spec — a failure, run once and
// not re-attempted — while every other workload's results are intact.
func TestPanicIsolation(t *testing.T) {
	victim := workloads.QuickSuite()[3].Name
	opts := Options{Insts: 20_000, Quick: true}

	clean := NewRunner(opts).Run(BaselineSpec())

	var victimRuns atomic.Int32
	spec := BaselineSpec()
	spec.preRun = func(w string) {
		if w == victim {
			victimRuns.Add(1)
			panic("injected fault: " + w)
		}
	}
	out := NewRunner(opts).Run(spec)

	if len(out) != len(clean) {
		t.Fatalf("got %d outcomes, want %d", len(out), len(clean))
	}
	failed := 0
	for i := range out {
		if out[i].Result.Workload == victim {
			failed++
			re := out[i].Err
			if re == nil {
				t.Fatalf("victim workload %s has no error", victim)
			}
			if re.Workload != victim || re.SpecLabel != spec.Label || re.Phase != PhaseSimulate {
				t.Fatalf("RunError misattributed: %+v", re)
			}
			if re.Stack == "" || !strings.Contains(re.Err.Error(), "injected fault") {
				t.Fatalf("RunError lacks stack or cause: %v", re)
			}
			if re.Class != ClassFailed || victimRuns.Load() != 1 {
				t.Fatalf("panicking run: class %s after %d runs, want %s after 1",
					re.Class, victimRuns.Load(), ClassFailed)
			}
		} else {
			if out[i].Err != nil {
				t.Fatalf("innocent workload %s failed: %v", out[i].Result.Workload, out[i].Err)
			}
			if !reflect.DeepEqual(out[i], clean[i]) {
				t.Fatalf("workload %s result changed by another run's panic", out[i].Result.Workload)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("found %d victim outcomes, want 1", failed)
	}
}

// TestWatchdogSurfacesAsRunError: a spec whose core never retires in time
// yields ErrStalled-wrapping RunErrors instead of hanging the sweep.
func TestWatchdogSurfacesAsRunError(t *testing.T) {
	spec := BaselineSpec()
	spec.Label = "stalling"
	spec.Core.FrontendDepth = 1_000 // first retire is impossible before the deadman
	spec.Core.StallCycles = 50
	out := NewRunner(Options{Insts: 5_000, Quick: true}).Run(spec)
	for i := range out {
		re := out[i].Err
		if re == nil {
			t.Fatalf("workload %s did not stall", out[i].Result.Workload)
		}
		if !errors.Is(re, core.ErrStalled) {
			t.Fatalf("error is not ErrStalled: %v", re)
		}
		if re.Phase != PhaseSimulate || re.Class != ClassFailed {
			t.Fatalf("stall attributed to phase %s, class %s", re.Phase, re.Class)
		}
	}
}

// TestSpecValidationFailsFast: a malformed spec fails every outcome with a
// PhaseValidate failure before any simulation runs.
func TestSpecValidationFailsFast(t *testing.T) {
	spec := BaselineSpec()
	spec.Label = "bad-core"
	spec.Core.Width = 0
	r := NewRunner(Options{Insts: 5_000, Quick: true})
	out := r.Run(spec)
	for i := range out {
		if out[i].Err == nil || out[i].Err.Phase != PhaseValidate || out[i].Err.Class != ClassFailed {
			t.Fatalf("outcome %d: want a PhaseValidate failure, got %+v", i, out[i].Err)
		}
		if !strings.Contains(out[i].Err.Error(), "Width") {
			t.Fatalf("validation error does not name the field: %v", out[i].Err)
		}
	}
	if len(r.Failures()) != len(out) {
		t.Fatalf("runner recorded %d failures, want %d", len(r.Failures()), len(out))
	}
}

// TestOptionsValidate: out-of-range sweep options are all reported in one
// error that names each field; valid options and zero-valued knobs pass.
func TestOptionsValidate(t *testing.T) {
	if err := (Options{Insts: 120_000}).Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	bad := Options{Insts: 0, Warmup: -1, Workers: -1, AuditSample: -1}
	err := bad.Validate()
	for _, field := range []string{"Insts", "Warmup", "Workers", "AuditSample"} {
		if err == nil || !strings.Contains(err.Error(), field+":") {
			t.Fatalf("error does not name %s: %v", field, err)
		}
	}
	// A warm-up that covers the whole run would leave nothing to measure.
	for _, warmup := range []int{5000, 6000} {
		if err := (Options{Insts: 5000, Warmup: warmup}).Validate(); err == nil || !strings.Contains(err.Error(), "Warmup:") {
			t.Fatalf("warm-up %d of a 5000-instruction run: got %v, want a Warmup error", warmup, err)
		}
	}
	if err := (Options{Insts: 5000, Warmup: 4999}).Validate(); err != nil {
		t.Fatalf("warm-up shorter than the run rejected: %v", err)
	}
}

// TestSpecValidateCatchesBadScheme: a scheme whose construction panics
// (invalid loop geometry) becomes a validation error, not a crash.
func TestSpecValidateCatchesBadScheme(t *testing.T) {
	bad := loop.Config{Name: "bad", Entries: 100, Ways: 8}
	spec := NoRepairSpec(bad)
	err := spec.Validate()
	if err == nil {
		t.Fatal("spec with invalid loop geometry validated")
	}
	if !strings.Contains(err.Error(), "scheme construction panicked") {
		t.Fatalf("unexpected validation error: %v", err)
	}
	if err := mustSpecFor("forward-coalesce").Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestRunnerFailuresOrdering: failures are recorded in workload order and
// memoized reruns do not duplicate them.
func TestRunnerFailuresOrdering(t *testing.T) {
	suite := workloads.QuickSuite()
	victims := map[string]bool{suite[1].Name: true, suite[4].Name: true}
	spec := BaselineSpec()
	spec.preRun = func(w string) {
		if victims[w] {
			panic("boom")
		}
	}
	r := NewRunner(Options{Insts: 20_000, Quick: true})
	r.Run(spec)
	r.Run(spec) // memoized; must not re-record
	fs := r.Failures()
	if len(fs) != 2 {
		t.Fatalf("recorded %d failures, want 2", len(fs))
	}
	if fs[0].Workload != suite[1].Name || fs[1].Workload != suite[4].Name {
		t.Fatalf("failures out of workload order: %s, %s", fs[0].Workload, fs[1].Workload)
	}
}

// TestCanceledRunNotMemoized: cancelling a sweep poisons neither the memo
// nor the failure record — the same runner re-runs the spec in full under a
// live context and produces clean results.
func TestCanceledRunNotMemoized(t *testing.T) {
	spec := BaselineSpec()
	r := NewRunner(Options{Insts: 20_000, Quick: true})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := r.RunContext(ctx, spec)
	canceled := 0
	for i := range out {
		if e := out[i].Err; e != nil && e.Class == ClassCanceled {
			if e.Phase != PhaseCanceled && !errors.Is(e, context.Canceled) {
				t.Fatalf("canceled outcome carries wrong cause: %v", e)
			}
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("pre-canceled context produced no canceled outcomes")
	}
	if len(r.Failures()) != 0 {
		t.Fatalf("cancellations recorded as failures: %d", len(r.Failures()))
	}

	clean := NewRunner(Options{Insts: 20_000, Quick: true}).Run(spec)
	rerun := r.Run(spec)
	if !reflect.DeepEqual(rerun, clean) {
		t.Fatal("post-cancel rerun differs from a fresh run: canceled outcomes were memoized")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")

	// Missing file: fresh start, no error.
	if ck, err := LoadCheckpoint(path); ck != nil || err != nil {
		t.Fatalf("missing file: got (%v, %v), want (nil, nil)", ck, err)
	}

	opts := Options{Insts: 20_000, Quick: true}
	ck := NewCheckpoint(opts)
	ck.Record("fig4", ExperimentOutcome{Output: "table\nrows\n", Seconds: 1.5})
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}

	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Matches(opts) {
		t.Fatal("reloaded checkpoint does not match its own options")
	}
	if got.Matches(Options{Insts: 30_000, Quick: true}) {
		t.Fatal("checkpoint matched different options")
	}
	out, ok := got.Done("fig4")
	if !ok || out.Output != "table\nrows\n" || out.Seconds != 1.5 {
		t.Fatalf("stored outcome corrupted: %+v ok=%v", out, ok)
	}
	if _, ok := got.Done("fig7a"); ok {
		t.Fatal("unfinished experiment reported done")
	}
}

func TestCheckpointRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("corrupt checkpoint loaded")
	}
	// An intact envelope of another version is a version error, not
	// corruption.
	future := NewCheckpoint(Options{Insts: 20_000})
	future.Version = 99
	if err := future.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not reported: %v", err)
	}
}

// writeFile is a tiny os.WriteFile wrapper keeping the imports tidy.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
