package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"localbp/internal/bpu"
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/repair"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// goroutineSource is a chunkedSource that records the most goroutines alive
// at any of its reads, which the core makes from inside RunContext.
type goroutineSource struct {
	*chunkedSource
	peak int
}

func (s *goroutineSource) Next(dst []trace.Inst) (int, error) {
	s.peak = max(s.peak, runtime.NumGoroutine())
	return s.chunkedSource.Next(dst)
}

// TestFeedLifecycle pins the memory-outcome producer's lifecycle: a run
// starts at most one producer goroutine, however many chunks a stream
// hands it, and RunContext joins it before returning on every exit path —
// a completed run, a canceled context, a watchdog stall and a source that
// fails mid-stream.
func TestFeedLifecycle(t *testing.T) {
	tr := workloads.QuickSuite()[0].Generate(100_000) // > 3 refills when streamed
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	stall := DefaultConfig()
	stall.MaxCycles = 2_000
	cases := []struct {
		name   string
		cfg    Config
		ctx    context.Context
		stream bool
		fail   int // the streamed source fails after this many instructions
		want   error
	}{
		{"Completed", DefaultConfig(), context.Background(), false, 0, nil},
		{"CompletedStream", DefaultConfig(), context.Background(), true, 0, nil},
		{"Canceled", DefaultConfig(), canceled, false, 0, ErrCanceled},
		{"CanceledStream", DefaultConfig(), canceled, true, 0, ErrCanceled},
		{"Stalled", stall, context.Background(), false, 0, ErrStalled},
		{"StalledStream", stall, context.Background(), true, 0, ErrStalled},
		{"SourceError", DefaultConfig(), context.Background(), true, 60_000, ErrTraceSource},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			src := &goroutineSource{chunkedSource: &chunkedSource{tr: tr, max: 4096, fail: tc.fail}}
			var c *Core
			if tc.stream {
				var err error
				if c, err = NewStream(tc.cfg, baselineUnit(), src); err != nil {
					t.Fatal(err)
				}
			} else {
				c = New(tc.cfg, baselineUnit(), tr)
			}
			if _, err := c.RunContext(tc.ctx); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			select {
			case <-c.feed.exited:
			default:
				t.Fatal("RunContext returned before the producer exited")
			}
			if tc.stream && src.peak > before+1 {
				t.Fatalf("%d goroutines alive during the run, %d before it: more than one producer", src.peak, before)
			}
			// The producer has exited, but its goroutine may still be
			// unwinding; give it a moment to disappear.
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after the run, %d before it: the producer outlived the run", n, before)
			}
		})
	}
}

// TestFeedGOMAXPROCS1 checks that the producer needs no second thread: a
// resident and a streamed run under GOMAXPROCS(1) match the default runs in
// their statistics and their memory counters.
func TestFeedGOMAXPROCS1(t *testing.T) {
	tr := workloads.QuickSuite()[1].Generate(100_000)
	type result struct {
		st  Stats
		mem [4]uint64
	}
	run := func(stream bool) result {
		unit := bpu.NewUnit(tage.KB8(),
			repair.NewForwardWalk(loop.Loop128(), 32, repair.Ports{CkptRead: 4, BHTWrite: 2}, true))
		var src trace.Source = trace.NewSliceSource(tr)
		if stream {
			src = &chunkedSource{tr: tr, max: 1009}
		}
		c, err := NewStream(DefaultConfig(), unit, src)
		if err != nil {
			t.Fatal(err)
		}
		var r result
		r.st = mustSimulate(t, c)
		r.mem[0], r.mem[1], r.mem[2], r.mem[3] = c.Mem().Stats()
		return r
	}
	want := [2]result{run(false), run(true)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i, stream := range []bool{false, true} {
		if got := run(stream); got != want[i] {
			t.Errorf("stream=%v: GOMAXPROCS(1) run diverges\n  got:  %+v\n  want: %+v", stream, got, want[i])
		}
	}
}
