package shard

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"localbp/internal/harness"
	"localbp/internal/service"
)

// fakeWorker simulates one worker generation in-process: it acquires the
// shard's lease, heartbeats, optionally "crashes" (stops heartbeating and
// exits with an error), and releases on success.
type fakeWorker struct {
	dir      string
	k, n     int
	ttl      time.Duration
	work     time.Duration // simulated shard runtime
	crashErr error         // non-nil: fail after work/2 without releasing

	killed chan struct{}
	once   sync.Once
	done   chan error
}

func startFake(dir string, k, n int, ttl time.Duration, work time.Duration, crashErr error) (*fakeWorker, error) {
	w := &fakeWorker{dir: dir, k: k, n: n, ttl: ttl, work: work, crashErr: crashErr,
		killed: make(chan struct{}), done: make(chan error, 1)}
	l, err := Acquire(dir, k, n, fmt.Sprintf("fake-%d", k), ttl)
	if err != nil {
		return nil, err
	}
	go func() {
		hb := time.NewTicker(ttl / 8)
		defer hb.Stop()
		deadline := time.After(w.work)
		if w.crashErr != nil {
			deadline = time.After(w.work / 2)
		}
		for {
			select {
			case <-w.killed:
				// Classifies transient, like a real signal-killed subprocess.
				w.done <- fmt.Errorf("fake worker killed: %w", harness.ErrInjected)
				return
			case <-deadline:
				if w.crashErr != nil {
					w.done <- w.crashErr // crash: no release, lease left to expire
					return
				}
				l.Release()
				w.done <- nil
				return
			case <-hb.C:
				if err := l.Renew(); err != nil {
					w.done <- err
					return
				}
			}
		}
	}()
	return w, nil
}

func (w *fakeWorker) Wait() error { return <-w.done }
func (w *fakeWorker) Kill() error { w.once.Do(func() { close(w.killed) }); return nil }

// TestCoordinatorHappyPath: all shards complete first try, no
// reassignments, status ok.
func TestCoordinatorHappyPath(t *testing.T) {
	dir := t.TempDir()
	ttl := 80 * time.Millisecond
	cfg := Config{
		Dir: dir, Shards: 3, TTL: ttl, MaxAttempts: 2,
		Retry: service.RetryPolicy{Seed: 1},
		Spawn: func(ctx context.Context, k, attempt int) (Worker, error) {
			return startFake(dir, k, 3, ttl, 30*time.Millisecond, nil)
		},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Status(); got != service.SweepOK {
		t.Fatalf("status = %s, want ok (%+v)", got, rep.Results)
	}
	for _, s := range rep.Results {
		if s.Attempts != 1 || s.Reassignments != 0 {
			t.Fatalf("shard %d: %d attempts, %d reassignments, want 1/0", s.Shard, s.Attempts, s.Reassignments)
		}
	}
}

// TestCoordinatorReassignsAfterExpiry is the heart of the tentpole: a
// worker that dies without releasing (transient) has its lease expire, the
// epoch is fenced, and a successor completes the shard. The successor's
// epoch must exceed the dead worker's.
func TestCoordinatorReassignsAfterExpiry(t *testing.T) {
	dir := t.TempDir()
	ttl := 80 * time.Millisecond
	var mu sync.Mutex
	spawns := 0
	var log strings.Builder
	cfg := Config{
		Dir: dir, Shards: 1, TTL: ttl, MaxAttempts: 3,
		Retry: service.RetryPolicy{BaseDelay: time.Millisecond, Seed: 1},
		Log:   &log,
		Spawn: func(ctx context.Context, k, attempt int) (Worker, error) {
			mu.Lock()
			spawns++
			n := spawns
			mu.Unlock()
			if n == 1 {
				// First worker crashes mid-shard with a transient error.
				return startFake(dir, 0, 1, ttl, 40*time.Millisecond,
					fmt.Errorf("simulated OOM kill: %w", harness.ErrInjected))
			}
			return startFake(dir, 0, 1, ttl, 20*time.Millisecond, nil)
		},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Results[0]
	if s.Class != "" || s.Attempts != 2 || s.Reassignments != 1 {
		t.Fatalf("shard result = %+v, want success after 1 reassignment", s)
	}
	// The reassignment is durable in the journal: epoch 1 expired, epoch 2
	// released.
	st, err := ReadLease(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 || st.Op != opRelease {
		t.Fatalf("final lease state = %+v, want epoch 2 released", st)
	}
	if !strings.Contains(log.String(), "reassigning") {
		t.Fatalf("coordinator log lacks reassignment: %s", log.String())
	}
}

// TestCoordinatorPermanentNotRetried: a config-error worker exit is not
// reassigned — retrying a deterministic failure burns the fleet for
// nothing.
func TestCoordinatorPermanentNotRetried(t *testing.T) {
	dir := t.TempDir()
	ttl := 60 * time.Millisecond
	var mu sync.Mutex
	spawns := 0
	cfg := Config{
		Dir: dir, Shards: 1, TTL: ttl, MaxAttempts: 3,
		Spawn: func(ctx context.Context, k, attempt int) (Worker, error) {
			mu.Lock()
			spawns++
			mu.Unlock()
			return startFake(dir, 0, 1, ttl, 20*time.Millisecond,
				&harness.RunError{Phase: harness.PhaseValidate, Err: errors.New("bad config")})
		},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Results[0]
	if s.Class != harness.ClassPermanent || s.Attempts != 1 {
		t.Fatalf("shard result = %+v, want permanent after 1 attempt", s)
	}
	mu.Lock()
	defer mu.Unlock()
	if spawns != 1 {
		t.Fatalf("permanent failure respawned %d times", spawns)
	}
	if rep.Status() != service.SweepAllFailed {
		t.Fatalf("status = %s, want all-failed", rep.Status())
	}
}

// TestCoordinatorExhaustsAttempts: a shard that keeps dying transiently is
// reported retry-exhausted after MaxAttempts, not retried forever.
func TestCoordinatorExhaustsAttempts(t *testing.T) {
	dir := t.TempDir()
	ttl := 60 * time.Millisecond
	cfg := Config{
		Dir: dir, Shards: 1, TTL: ttl, MaxAttempts: 2,
		Retry: service.RetryPolicy{BaseDelay: time.Millisecond, Seed: 1},
		Spawn: func(ctx context.Context, k, attempt int) (Worker, error) {
			return startFake(dir, 0, 1, ttl, 30*time.Millisecond,
				fmt.Errorf("repeated kill: %w", harness.ErrInjected))
		},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Results[0]
	if s.Class != harness.ClassExhausted || s.Attempts != 2 || s.Reassignments != 1 {
		t.Fatalf("shard result = %+v, want retry-exhausted after 2 attempts", s)
	}
}

// TestCoordinatorKillsFrozenWorker: a worker that holds the lease but stops
// heartbeating without exiting (SIGSTOP-grade freeze) is killed and the
// shard reassigned.
func TestCoordinatorKillsFrozenWorker(t *testing.T) {
	dir := t.TempDir()
	ttl := 60 * time.Millisecond
	var mu sync.Mutex
	spawns := 0
	cfg := Config{
		Dir: dir, Shards: 1, TTL: ttl, MaxAttempts: 2,
		Retry: service.RetryPolicy{BaseDelay: time.Millisecond, Seed: 1},
		Spawn: func(ctx context.Context, k, attempt int) (Worker, error) {
			mu.Lock()
			spawns++
			n := spawns
			mu.Unlock()
			if n == 1 {
				return startFrozenFake(dir, 0, 1, ttl)
			}
			return startFake(dir, 0, 1, ttl, 20*time.Millisecond, nil)
		},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Results[0]
	if s.Class != "" || s.Attempts != 2 {
		t.Fatalf("shard result = %+v, want success on attempt 2 after freeze", s)
	}
}

// startFrozenFake acquires the lease and then goes completely silent: it
// neither heartbeats nor exits until killed.
func startFrozenFake(dir string, k, n int, ttl time.Duration) (*fakeWorker, error) {
	w := &fakeWorker{killed: make(chan struct{}), done: make(chan error, 1)}
	if _, err := Acquire(dir, k, n, "frozen", ttl); err != nil {
		return nil, err
	}
	go func() {
		<-w.killed
		w.done <- fmt.Errorf("frozen worker killed: %w", harness.ErrInjected)
	}()
	return w, nil
}

// TestCoordinatorCanceled: canceling the context mid-run yields an
// interrupted report, and shards that never got a slot are marked canceled.
func TestCoordinatorCanceled(t *testing.T) {
	dir := t.TempDir()
	ttl := 80 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		Dir: dir, Shards: 2, Parallel: 1, TTL: ttl, MaxAttempts: 1,
		Spawn: func(ctx context.Context, k, attempt int) (Worker, error) {
			cancel() // cancel as soon as the first worker launches
			return startFake(dir, k, 2, ttl, 30*time.Millisecond, nil)
		},
	}
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted || rep.Status() != service.SweepInterrupted {
		t.Fatalf("report = %+v, want interrupted", rep)
	}
}

// TestClassifyWorkerExit pins the process-boundary extension of the retry
// taxonomy, including real *exec.ExitError values from /bin/sh.
func TestClassifyWorkerExit(t *testing.T) {
	exitErr := func(code int) error {
		cmd := exec.Command("/bin/sh", "-c", fmt.Sprintf("exit %d", code))
		err := cmd.Run()
		if err == nil {
			t.Fatalf("exit %d produced no error", code)
		}
		return err
	}
	sigErr := func() error {
		cmd := exec.Command("/bin/sh", "-c", "kill -KILL $$")
		err := cmd.Run()
		if err == nil {
			t.Fatal("SIGKILL produced no error")
		}
		return err
	}

	cases := []struct {
		name string
		err  error
		want harness.ErrorClass
	}{
		{"success", nil, ""},
		{"signal-killed", sigErr(), harness.ClassTransient},
		{"exit 4 interrupted", exitErr(service.ExitCanceled), harness.ClassTransient},
		{"exit 2 config", exitErr(service.ExitConfigError), harness.ClassPermanent},
		{"exit 1 partial", exitErr(service.ExitFailure), harness.ClassPermanent},
		{"exit 3 all-failed", exitErr(service.ExitAllFailed), harness.ClassPermanent},
		{"frozen", fmt.Errorf("shard 0: %w", ErrWorkerFrozen), harness.ClassTransient},
		{"unknown error", errors.New("mystery"), harness.ClassPermanent},
	}
	for _, tc := range cases {
		if got := ClassifyWorkerExit(tc.err); got != tc.want {
			t.Errorf("ClassifyWorkerExit(%s) = %q, want %q", tc.name, got, tc.want)
		}
	}
}
