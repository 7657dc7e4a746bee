package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"localbp/internal/workloads"
)

// TestChaosPlanDeterministic: the plan is a pure function of (seed, spec,
// workload), bounded by MaxFaults, and a nil plan never faults.
func TestChaosPlanDeterministic(t *testing.T) {
	p := &ChaosPlan{Seed: 7, MaxFaults: 2}
	some := false
	for _, w := range workloads.QuickSuite() {
		a := p.FaultyAttempts("baseline", w.Name)
		b := p.FaultyAttempts("baseline", w.Name)
		if a != b {
			t.Fatalf("%s: plan not deterministic: %d then %d", w.Name, a, b)
		}
		if a < 0 || a > 2 {
			t.Fatalf("%s: fault count %d outside [0, 2]", w.Name, a)
		}
		if a > 0 {
			some = true
		}
	}
	if !some {
		t.Fatal("chaos plan faulted nothing across the quick suite; seed degenerate")
	}
	var nilPlan *ChaosPlan
	if nilPlan.FaultyAttempts("x", "y") != 0 {
		t.Fatal("nil plan injected a fault")
	}
}

// TestChaosRetryBitIdentical is the chaos gate: with a retry budget covering
// the plan's fault bound, every run completes and the surviving outcomes are
// bit-identical to an un-chaosed sweep — faulted attempts never start the
// simulation, and retries replay the identical cached trace.
func TestChaosRetryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	spec := BaselineSpec()
	clean := NewRunner(Options{Insts: 20_000, Quick: true}).Run(spec)

	chaos := &ChaosPlan{Seed: 7, MaxFaults: 2}
	r := NewRunner(Options{Insts: 20_000, Quick: true, Retries: 2, Chaos: chaos})
	out := r.Run(spec)

	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("workload %s failed despite retry budget covering the chaos bound: %v",
				out[i].Result.Workload, out[i].Err)
		}
	}
	if !reflect.DeepEqual(out, clean) {
		t.Fatal("chaos + retry perturbed surviving results")
	}
	if len(r.Failures()) != 0 {
		t.Fatalf("recovered runs recorded as failures: %d", len(r.Failures()))
	}
}

// TestChaosWithoutRetriesExhausts: with a retry budget smaller than the
// fault bound, chaos-faulted runs surface as classified failures —
// retry-exhausted when retries were attempted, transient when none were
// configured — and errors.Is finds ErrInjected through the RunError.
func TestChaosWithoutRetriesExhausts(t *testing.T) {
	spec := BaselineSpec()
	// MaxFaults 3 with Retries 1: any pair drawing >= 2 faults exhausts.
	chaos := &ChaosPlan{Seed: 11, MaxFaults: 3}
	r := NewRunner(Options{Insts: 5_000, Quick: true, Retries: 1, Chaos: chaos})
	out := r.Run(spec)

	exhausted := 0
	for i := range out {
		faults := chaos.FaultyAttempts(spec.Label, out[i].Result.Workload)
		if faults <= 1 {
			if out[i].Err != nil {
				t.Fatalf("workload %s (%d faults, 1 retry) should have recovered: %v",
					out[i].Result.Workload, faults, out[i].Err)
			}
			continue
		}
		re := out[i].Err
		if re == nil {
			t.Fatalf("workload %s (%d faults, 1 retry) should have exhausted", out[i].Result.Workload, faults)
		}
		if re.Class != ClassExhausted {
			t.Fatalf("workload %s: class %s, want %s", out[i].Result.Workload, re.Class, ClassExhausted)
		}
		if re.Attempts != 2 {
			t.Fatalf("workload %s: %d attempts, want 2", out[i].Result.Workload, re.Attempts)
		}
		if !errors.Is(re, ErrInjected) {
			t.Fatalf("workload %s: errors.Is(err, ErrInjected) = false: %v", out[i].Result.Workload, re)
		}
		if !strings.Contains(re.Error(), "after 2 attempts") {
			t.Fatalf("workload %s: error does not report attempts: %v", out[i].Result.Workload, re)
		}
		exhausted++
	}
	if exhausted == 0 {
		t.Fatal("no pair drew >= 2 faults; chaos seed degenerate for this test")
	}
}

// TestTransientPanicRetried: a panic is classified transient, so the runner
// re-attempts it; a fault that clears after the first attempt recovers with
// no recorded failure.
func TestTransientPanicRetried(t *testing.T) {
	victim := workloads.QuickSuite()[2].Name
	var mu sync.Mutex
	calls := map[string]int{}
	spec := BaselineSpec()
	spec.preRun = func(w string) {
		mu.Lock()
		calls[w]++
		n := calls[w]
		mu.Unlock()
		if w == victim && n == 1 {
			panic("transient fault: " + w)
		}
	}
	r := NewRunner(Options{Insts: 20_000, Quick: true, Retries: 2})
	out := r.Run(spec)
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("workload %s failed: %v", out[i].Result.Workload, out[i].Err)
		}
	}
	mu.Lock()
	n := calls[victim]
	mu.Unlock()
	if n != 2 {
		t.Fatalf("victim attempted %d times, want 2 (fail, recover)", n)
	}
	if len(r.Failures()) != 0 {
		t.Fatalf("recovered run recorded as failure: %v", r.Failures()[0])
	}
}

// TestPermanentNotRetried: validation failures classify permanent and are
// never re-attempted, regardless of the retry budget.
func TestPermanentNotRetried(t *testing.T) {
	spec := BaselineSpec()
	spec.Label = "bad-core"
	spec.Core.Width = 0
	r := NewRunner(Options{Insts: 5_000, Quick: true, Retries: 5})
	out := r.Run(spec)
	for i := range out {
		re := out[i].Err
		if re == nil {
			t.Fatalf("outcome %d: invalid spec produced no error", i)
		}
		if re.Class != ClassPermanent || re.Attempts != 1 {
			t.Fatalf("outcome %d: class %s after %d attempts, want permanent after 1", i, re.Class, re.Attempts)
		}
	}
}

// TestRunTimeoutExhausts: a per-attempt wall-clock cap that always expires
// while the sweep context stays live is treated as transient, retried, and
// finally reported retry-exhausted wrapping the deadline cause.
func TestRunTimeoutExhausts(t *testing.T) {
	spec := BaselineSpec()
	r := NewRunner(Options{Insts: 30_000, Quick: true, Workers: 1,
		Retries: 1, RunTimeout: time.Nanosecond})
	out := r.Run(spec)
	re := out[0].Err
	if re == nil {
		t.Fatal("1ns run timeout did not trip")
	}
	if re.Class != ClassExhausted {
		t.Fatalf("class %s, want %s", re.Class, ClassExhausted)
	}
	if re.Attempts != 2 {
		t.Fatalf("%d attempts, want 2", re.Attempts)
	}
	if !errors.Is(re, context.DeadlineExceeded) {
		t.Fatalf("cause is not DeadlineExceeded: %v", re)
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
