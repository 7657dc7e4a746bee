package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCancelPreCanceledContext checks that an already-canceled context stops
// the run at the first check: the simulation makes at most one check
// stride's worth of progress and the error carries the cancellation state.
func TestCancelPreCanceledContext(t *testing.T) {
	tr := aluTrace(200_000,
		func(i int) uint8 { return uint8(1 + i%60) },
		func(i int) uint8 { return 0 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	c := New(DefaultConfig(), baselineUnit(), tr)
	st, err := c.RunContext(ctx)
	if err == nil {
		t.Fatal("pre-canceled context: run completed")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause not context.Canceled: %v", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *CancelError: %v", err)
	}
	// The loop checks every cancelCheckMask+1 iterations; a pre-canceled
	// context must be observed on the first check, before any real progress.
	if ce.Cycle > cancelCheckMask+1 {
		t.Fatalf("canceled run progressed to cycle %d, want <= %d", ce.Cycle, cancelCheckMask+1)
	}
	if st.Cycles != ce.Cycle {
		t.Fatalf("stats cycles %d != cancel cycle %d", st.Cycles, ce.Cycle)
	}
}

// TestCancelDeadlineMidRun cancels via deadline while the run is in flight
// and checks the partial stats are coherent (cycle count matches, fewer
// instructions retired than the full trace).
func TestCancelDeadlineMidRun(t *testing.T) {
	tr := aluTrace(2_000_000,
		func(i int) uint8 { return uint8(1 + i%60) },
		func(i int) uint8 { return 0 })
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()

	c := New(DefaultConfig(), baselineUnit(), tr)
	st, err := c.RunContext(ctx)
	if err == nil {
		// A very fast machine might finish 2M ALU instructions inside the
		// deadline; that is not a failure of cancellation.
		t.Skip("run completed inside the deadline")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *CancelError: %v", err)
	}
	if st.Insts >= 2_000_000 {
		t.Fatalf("canceled run retired the full trace (%d insts)", st.Insts)
	}
	if ce.Insts != st.Insts {
		t.Fatalf("cancel error insts %d != stats insts %d", ce.Insts, st.Insts)
	}
}

// TestBackgroundContextBitIdentical pins the zero-cost default path: a run
// under the Background context and one under an explicit, never-canceled
// context produce bit-identical statistics.
func TestBackgroundContextBitIdentical(t *testing.T) {
	tr := aluTrace(60_000,
		func(i int) uint8 { return uint8(1 + i%60) },
		func(i int) uint8 { return 0 })

	a := New(DefaultConfig(), baselineUnit(), tr)
	stA, errA := simulate(a)
	if errA != nil {
		t.Fatal(errA)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := New(DefaultConfig(), baselineUnit(), tr)
	stB, errB := b.RunContext(ctx)
	if errB != nil {
		t.Fatal(errB)
	}
	if stA != stB {
		t.Fatalf("context plumbing perturbed the simulation:\nbackground: %+v\nctx:        %+v", stA, stB)
	}
}
