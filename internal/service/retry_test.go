package service

import (
	"testing"
	"time"
)

// TestRetryDelayCap: the exponential schedule saturates at MaxDelay (jitter
// still applies below it), the doubling shift is clamped so absurd attempt
// numbers cannot overflow, and an uncapped policy keeps growing to the
// clamp.
func TestRetryDelayCap(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond,
		MaxDelay: time.Second, Seed: 7}
	// From attempt 5 on, 100ms·2^(a-1) exceeds the 1 s cap: every delay must
	// land in [cap/2, cap).
	for attempt := 5; attempt <= 70; attempt += 13 {
		d := p.Delay("k", attempt)
		if d < p.MaxDelay/2 || d >= p.MaxDelay {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, p.MaxDelay/2, p.MaxDelay)
		}
	}

	// Uncapped: growth continues but the shift clamps at 2^20, so even
	// attempt 10_000 yields a finite, positive delay ≤ base·2^20.
	unc := RetryPolicy{BaseDelay: time.Microsecond, Seed: 7}
	ceil := unc.BaseDelay << 20
	for _, attempt := range []int{21, 64, 10_000} {
		d := unc.Delay("k", attempt)
		if d <= 0 || d >= ceil {
			t.Fatalf("uncapped attempt %d: delay %v outside (0, %v)", attempt, d, ceil)
		}
	}
}

// TestRetryDelaySeedSensitivity: the jitter stream is a function of the
// policy seed — two policies differing only in Seed draw different schedules
// for the same key, while the same seed reproduces the schedule exactly.
func TestRetryDelaySeedSensitivity(t *testing.T) {
	a := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 10 * time.Second, Seed: 1}
	b := a
	b.Seed = 2

	same, differ := true, false
	for attempt := 1; attempt <= 5; attempt++ {
		da, db := a.Delay("job-0001", attempt), b.Delay("job-0001", attempt)
		if da != db {
			differ = true
		}
		if a.Delay("job-0001", attempt) != da {
			same = false
		}
	}
	if !differ {
		t.Fatal("seeds 1 and 2 drew identical 5-attempt schedules")
	}
	if !same {
		t.Fatal("repeated Delay calls with one seed disagreed")
	}
}
