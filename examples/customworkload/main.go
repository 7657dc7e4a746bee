// customworkload shows how to author a synthetic program by hand — regions,
// loop-period generators, branch-outcome patterns, memory profile — and run
// it through the simulator. Use this as a template for studying specific
// branch behaviours.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"

	"localbp"
	"localbp/internal/trace"
)

func main() {
	// A program with three characteristic branch sites:
	//   site 0 — a long fixed loop (period 96) that overflows TAGE's
	//            usable history once diluted: CBPw-Loop territory;
	//   site 2 — an if-then-else taken once every 24 executions
	//            (the NNN...T forward-conditional shape);
	//   site 4 — a biased random branch: irreducible noise that also
	//            dilutes the global history.
	prog := trace.Program{
		Regions: []trace.Region{
			trace.Loop{
				Site:    0,
				Periods: trace.FixedPeriod(96),
				Body: []trace.Region{
					trace.Block{Site: 1, Len: 14},
					trace.Cond{
						Site:    2,
						Outcome: &trace.PeriodicPattern{Period: 24},
						ThenLen: 8,
						ElseLen: 4,
					},
					trace.Cond{
						Site:    4,
						Outcome: trace.BiasedPattern{P: 0.85},
						ThenLen: 6,
						ElseLen: 3,
					},
				},
			},
			trace.Block{Site: 5, Len: 24},
		},
		MemProfile: trace.MemProfile{
			FootprintLog2: 19,   // 512KB random pool
			StreamFrac:    0.75, // three quarters of accesses stream
			LoadFrac:      0.25,
			StoreFrac:     0.10,
		},
		DepDist:      5,
		Independence: 0.9,
	}

	const insts = 400_000
	tr := trace.Generate(prog, insts, 42)
	fmt.Println("trace:", trace.Summarize(tr))

	run := func(s localbp.Scheme) localbp.Result {
		r, err := localbp.FromSource(trace.NewSliceSource(tr), s)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	base := run(localbp.BaselineTAGE())
	fwd := run(localbp.ForwardWalk())
	none := run(localbp.NoRepair())

	fmt.Printf("\n%-14s %8s %8s\n", "config", "IPC", "MPKI")
	for _, r := range []localbp.Result{base, fwd, none} {
		fmt.Printf("%-14s %8.3f %8.3f\n", r.Scheme, r.IPC, r.MPKI)
	}
	fmt.Printf("\nforward-walk repair removes %.1f%% of the baseline MPKI;\n",
		100*(base.MPKI-fwd.MPKI)/base.MPKI)
	fmt.Printf("without repair the same predictor removes %.1f%%.\n",
		100*(base.MPKI-none.MPKI)/base.MPKI)
	// Note: with very branch-dense programs whose every branch hits the
	// BHT, the 32-entry OBQ saturates (paper §2.5 issue d) and forward
	// walk loses ground to perfect repair — try shrinking the blocks
	// above to see it.
}
