package service

import (
	"hash/fnv"
	"time"
)

// RetryPolicy is the backoff schedule for retrying ClassTransient failures
// (stalls, integrity trips, panics, injected chaos faults — see
// harness.Classify): jittered exponential delays. The sweep applies it
// through BackoffFunc; the shard coordinator calls Delay.
//
// The jitter is deterministic: a splitmix64 stream seeded by (Seed, key,
// attempt) decides the delay, so the same job retried on the same policy
// sleeps the same schedule — reproducibility extends to the failure path.
type RetryPolicy struct {
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it, capped at MaxDelay. 0 retries immediately.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; 0 means uncapped.
	MaxDelay time.Duration
	// Seed selects the deterministic jitter stream.
	Seed uint64
}

// DefaultRetryPolicy is the lbpsweep and shard-coordinator default:
// 50 ms base, 2 s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: 1}
}

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

// splitmix64 is the standard 64-bit finalizing mix (Vigna), the same
// stateless hash the chaos plan and fault injector use for deterministic
// randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
