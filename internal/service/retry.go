package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"localbp/internal/harness"
)

// RetryPolicy is the classified retry policy of the service core: jittered
// exponential backoff with a max-attempts bound, applied only to
// ClassTransient failures (stalls, integrity trips, panics, injected chaos
// faults — see harness.Classify). Permanent failures and context
// cancellations return immediately.
//
// The jitter is deterministic: a splitmix64 stream seeded by (Seed, key,
// attempt) decides the delay, so the same job retried on the same policy
// sleeps the same schedule — reproducibility extends to the failure path.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget (first try included);
	// <= 0 means exactly one attempt (no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it, capped at MaxDelay. 0 retries immediately.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; 0 means uncapped.
	MaxDelay time.Duration
	// Seed selects the deterministic jitter stream.
	Seed uint64
}

// DefaultRetryPolicy is the lbpsweep and shard-coordinator default:
// 3 attempts, 50 ms base, 2 s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: 1}
}

func (p RetryPolicy) attempts() int { return max(1, p.MaxAttempts) }

// Delay returns the backoff before retry `attempt` (1-based: the delay
// slept between the first and second attempt has attempt=1) of the job
// identified by key: BaseDelay·2^(attempt-1), capped at MaxDelay, scaled by
// a deterministic jitter factor in [0.5, 1.0).
func (p RetryPolicy) Delay(key string, attempt int) time.Duration {
	if attempt <= 0 || p.BaseDelay <= 0 {
		return 0
	}
	shift := min(attempt-1, 20) // 2^20 · base: far past any sane MaxDelay
	d := p.BaseDelay << shift
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	mix := splitmix64(p.Seed ^ h.Sum64() ^ uint64(attempt))
	frac := 0.5 + float64(mix>>11)/(1<<53)/2 // [0.5, 1.0)
	return time.Duration(float64(d) * frac)
}

// BackoffFunc adapts the policy to harness.Options.Backoff, keyed by
// spec × workload.
func (p RetryPolicy) BackoffFunc() func(spec, workload string, attempt int) time.Duration {
	return func(spec, workload string, attempt int) time.Duration {
		return p.Delay(spec+"\x00"+workload, attempt)
	}
}

// Do runs f under the policy: transient failures are retried with backoff
// until the attempt budget is spent; permanent failures and cancellations
// return at once. It reports how many attempts ran and the final error
// (nil on success).
func (p RetryPolicy) Do(ctx context.Context, key string, f func(ctx context.Context) error) (attempts int, err error) {
	budget := p.attempts()
	for a := 1; ; a++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = fmt.Errorf("service: %s canceled before attempt %d: %w", key, a, cerr)
			}
			return a - 1, err
		}
		err = f(ctx)
		if err == nil {
			return a, nil
		}
		if harness.Classify(err) != harness.ClassTransient || a >= budget {
			return a, err
		}
		sleepCtx(ctx, p.Delay(key, a))
	}
}

// sleepCtx waits d or until ctx is canceled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// splitmix64 is the standard 64-bit finalizing mix (Vigna), the same
// stateless hash the chaos plan and fault injector use for deterministic
// randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
