package core

import (
	"testing"

	"localbp/internal/audit"
	"localbp/internal/bpu"
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/obs"
	"localbp/internal/repair"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// TestFastForwardDifferential pins the fast-forward's exactness contract:
// a run that skips idle windows must be bit-identical — every Stats field
// and the full CPI stack — to the cycle-by-cycle run. Two subtests cover
// it: AllSchemes runs every scheme on the first quick-suite workloads, plus
// an audited fast-forward run that must also pass every integrity check,
// and FullSuite runs forward-coalesce over the full quick suite plus the
// 37-rung stressor ladder at a shorter length.
func TestFastForwardDifferential(t *testing.T) {
	forwardCoalesce := func() repair.Scheme {
		return repair.NewForwardWalk(loop.Loop128(), 32, repair.Ports{CkptRead: 4, BHTWrite: 2}, true)
	}
	type scheme struct {
		name string
		mk   func() repair.Scheme
		// audited attaches an auditor to the fast-forward run only; the
		// cycle-by-cycle run it is compared with stays unaudited.
		audited bool
	}
	allSchemes := []scheme{
		{"baseline", func() repair.Scheme { return nil }, false},
		{"no-repair", func() repair.Scheme { return repair.NewNone(loop.Loop128()) }, false},
		{"forward-coalesce", forwardCoalesce, false},
		{"perfect", func() repair.Scheme { return repair.NewPerfect(loop.Loop128()) }, false},
		{"forward-coalesce-audited", forwardCoalesce, true},
	}
	runOne := func(t *testing.T, tr []trace.Inst, sc scheme, disableFF bool) (Stats, [obs.NumCPIBuckets]int64) {
		cfg := DefaultConfig()
		cpi := obs.NewCPIStack()
		cfg.Obs = &obs.Hooks{CPI: cpi}
		s := sc.mk()
		if sc.audited && !disableFF {
			cfg.Audit = audit.New()
			s = audit.WrapScheme(s, cfg.Audit)
		}
		c := New(cfg, bpu.NewUnit(tage.KB8(), s), tr)
		c.disableFastForward = disableFF
		st := mustSimulate(t, c)
		var stacks [obs.NumCPIBuckets]int64
		cpi.Buckets(func(b obs.CPIBucket, n int64) { stacks[b] = n })
		return st, stacks
	}
	check := func(t *testing.T, ws []workloads.Workload, insts int, schemes []scheme) {
		for _, w := range ws {
			tr := w.Generate(insts)
			for _, sc := range schemes {
				ffSt, ffCPI := runOne(t, tr, sc, false)
				plainSt, plainCPI := runOne(t, tr, sc, true)
				if ffSt != plainSt {
					t.Errorf("%s/%s: stats diverge\n  ff:    %+v\n  plain: %+v", w.Name, sc.name, ffSt, plainSt)
				}
				if ffCPI != plainCPI {
					t.Errorf("%s/%s: CPI stacks diverge\n  ff:    %v\n  plain: %v", w.Name, sc.name, ffCPI, plainCPI)
				}
			}
		}
	}
	quick := workloads.QuickSuite()
	t.Run("AllSchemes", func(t *testing.T) {
		check(t, quick[:6], 12_000, allSchemes)
	})
	t.Run("FullSuite", func(t *testing.T) {
		check(t, append(quick, workloads.StressSuite()...), 8_000, []scheme{{"forward-coalesce", forwardCoalesce, false}})
	})
}

// TestFastForwardWatchdogIdentical checks that a deadman trip under
// fast-forward fires at the same cycle with the same reason as the plain
// loop: the clamp makes the firing iteration run live.
func TestFastForwardWatchdogIdentical(t *testing.T) {
	// A load depending on itself never completes... not expressible; use a
	// program whose tail stalls: one instruction with an enormous fetch hold
	// via BTB pressure is fragile, so instead drive the deadman directly
	// with a tiny StallCycles and a long DRAM-bound dependency chain.
	tr := make([]trace.Inst, 600)
	for i := range tr {
		// Pointer-chase loads: serial DRAM misses, huge retire gaps.
		tr[i] = trace.Inst{PC: uint64(0x1000 + i*4), Class: trace.ClassLoad,
			Addr: uint64(i) * 64 * 8192, Dst: 1, Src1: 1}
	}
	runOne := func(disableFF bool) (Stats, error) {
		cfg := DefaultConfig()
		cfg.StallCycles = 40 // below a DRAM round trip: guaranteed trip
		c := New(cfg, baselineUnit(), tr)
		c.disableFastForward = disableFF
		return simulate(c)
	}
	ffSt, ffErr := runOne(false)
	plainSt, plainErr := runOne(true)
	if (ffErr == nil) != (plainErr == nil) {
		t.Fatalf("watchdog divergence: ff err=%v plain err=%v", ffErr, plainErr)
	}
	if ffErr == nil {
		t.Fatalf("expected a deadman trip with StallCycles=40")
	}
	if ffSt.Cycles != plainSt.Cycles {
		t.Fatalf("deadman fired at different cycles: ff=%d plain=%d", ffSt.Cycles, plainSt.Cycles)
	}
	if ffErr.Error() != plainErr.Error() {
		t.Fatalf("stall errors differ:\n  ff:    %v\n  plain: %v", ffErr, plainErr)
	}
}

// TestResolutionHeapOrdering exercises the resolution heap directly:
// interleaved same-cycle and far-future events pop in (done, seq) order as
// the clock advances cycle by cycle, and a warm heap pushes and drains
// without allocating (drain hands fn the heap's own storage).
func TestResolutionHeapOrdering(t *testing.T) {
	var q resolutionHeap
	var seq uint64
	mk := func(done int64) resolution {
		seq++
		return resolution{done: done, seq: seq}
	}
	// Same-cycle and far-future events, interleaved.
	ins := []int64{5, 3, 5, 2148, 3, 7, 6153, 2098}
	for _, d := range ins {
		q.push(mk(d))
	}
	if len(q) != len(ins) {
		t.Fatalf("len = %d, want %d", len(q), len(ins))
	}
	if d, ok := q.nextDue(); !ok || d != 3 {
		t.Fatalf("nextDue = %d,%v, want 3,true", d, ok)
	}
	var popped []resolution
	for cyc := int64(0); cyc <= 6154; cyc++ {
		q.drain(cyc, func(r *resolution) {
			if r.done > cyc {
				t.Fatalf("entry due at %d delivered at cycle %d", r.done, cyc)
			}
			popped = append(popped, *r)
		})
	}
	if len(q) != 0 {
		t.Fatalf("heap not empty after full drain: %d left", len(q))
	}
	if _, ok := q.nextDue(); ok {
		t.Fatal("nextDue reports an event on an empty heap")
	}
	if len(popped) != len(ins) {
		t.Fatalf("popped %d, want %d", len(popped), len(ins))
	}
	for i := 1; i < len(popped); i++ {
		a, b := popped[i-1], popped[i]
		if a.done > b.done || (a.done == b.done && a.seq > b.seq) {
			t.Fatalf("pop order violated at %d: (%d,%d) before (%d,%d)",
				i, a.done, a.seq, b.done, b.seq)
		}
	}

	var last uint64
	cyc := int64(10_000)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range 8 {
			q.push(mk(cyc + int64(8-i)))
		}
		cyc += 8
		q.drain(cyc, func(r *resolution) { last = r.seq })
	})
	if allocs != 0 || len(q) != 0 || last == 0 {
		t.Fatalf("warm push/drain: %.1f allocations per round, %d left, last seq %d; want 0, 0, > 0",
			allocs, len(q), last)
	}
}
