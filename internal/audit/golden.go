package audit

import (
	"fmt"

	"localbp/internal/trace"
)

// Golden is the differential oracle: a timing-free in-order functional
// executor of the same trace. The OOO core reports every real-path
// retirement to it in order; the golden model checks that the retired stream
// is exactly the architectural instruction stream — positions strictly
// sequential, classes matching, and for branches the PC and resolved outcome
// identical to the trace. Divergence is caught at the first offending retire
// instead of surfacing later as a skewed IPC number.
//
// The functional model is deliberately trivial: the trace *is* the
// architectural execution, so "executing" it in order is indexing it. All
// the verification power is in comparing what the OOO machinery actually
// retired (its own bookkeeping: stream positions, branch records, resolved
// outcomes) against that ground truth.
type Golden struct {
	prog     []trace.Inst
	cursor   int    // next architectural instruction expected to retire
	branches uint64 // conditional branches retired so far
}

// NewGolden builds the oracle over the program the core will run.
func NewGolden(prog []trace.Inst) *Golden { return &Golden{prog: prog} }

// Retire checks one real-path retirement against the architectural stream.
// streamPos is the core's recorded trace index for the retiring entry;
// pc/actualTaken are meaningful only when isBranch is true and are taken
// from the core's branch record (its own view, not re-read from the trace).
// It returns nil when consistent, or the violation.
func (g *Golden) Retire(streamPos int, class trace.Class, isBranch bool, pc uint64, actualTaken bool, cycle int64) *IntegrityError {
	if streamPos != g.cursor {
		return &IntegrityError{
			Cycle:     cycle,
			PC:        pc,
			Invariant: InvOracleStream,
			Dump: fmt.Sprintf("  retired stream position %d, golden model expects %d (of %d)",
				streamPos, g.cursor, len(g.prog)),
		}
	}
	if g.cursor >= len(g.prog) {
		return &IntegrityError{
			Cycle:     cycle,
			PC:        pc,
			Invariant: InvOracleStream,
			Dump:      fmt.Sprintf("  retired %d instructions, trace has only %d", g.cursor+1, len(g.prog)),
		}
	}
	in := g.prog[g.cursor]
	if class != in.Class || isBranch != in.IsBranch() {
		return &IntegrityError{
			Cycle:     cycle,
			PC:        in.PC,
			Invariant: InvOracleClass,
			Dump: fmt.Sprintf("  stream position %d: retired class=%v branch=%v, trace has class=%v branch=%v",
				g.cursor, class, isBranch, in.Class, in.IsBranch()),
		}
	}
	if isBranch {
		if pc != in.PC || actualTaken != in.Taken {
			return &IntegrityError{
				Cycle:     cycle,
				PC:        in.PC,
				Invariant: InvOracleBranch,
				Dump: fmt.Sprintf("  stream position %d: retired branch pc=%#x taken=%v, trace has pc=%#x taken=%v",
					g.cursor, pc, actualTaken, in.PC, in.Taken),
			}
		}
		g.branches++
	}
	g.cursor++
	return nil
}

// Finish cross-checks the end-of-run totals: every architectural instruction
// retired exactly once, and the core's raw (pre-warmup-subtraction) counters
// agree with the functional model.
func (g *Golden) Finish(insts, branches uint64, cycle int64) *IntegrityError {
	if g.cursor != len(g.prog) {
		return &IntegrityError{
			Cycle:     cycle,
			Invariant: InvOracleCounts,
			Dump: fmt.Sprintf("  golden model retired %d of %d trace instructions",
				g.cursor, len(g.prog)),
		}
	}
	if insts != uint64(g.cursor) || branches != g.branches {
		return &IntegrityError{
			Cycle:     cycle,
			Invariant: InvOracleCounts,
			Dump: fmt.Sprintf("  core counted insts=%d branches=%d; golden model counted insts=%d branches=%d",
				insts, branches, g.cursor, g.branches),
		}
	}
	return nil
}
