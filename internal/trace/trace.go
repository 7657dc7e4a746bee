// Package trace defines the dynamic instruction stream consumed by the
// cycle-level core model, and a synthetic program generator that produces
// streams with realistic control-flow structure: nested loops with
// parameterizable exit-iteration behaviour, if-then-else sites with repeating
// local patterns, globally-correlated branches, biased-random branches, and
// non-branch filler instructions carrying register dependences and memory
// accesses.
//
// The generator substitutes for the proprietary workload traces used by the
// paper (see DESIGN.md §3): what matters for the study is that branch PCs
// recur with per-PC local structure, so that a local predictor has state
// worth protecting across pipeline flushes.
package trace

import "fmt"

// Class categorizes a dynamic instruction for the timing model.
type Class uint8

const (
	// ClassALU is a single-cycle integer operation.
	ClassALU Class = iota
	// ClassMul is a multi-cycle integer operation (multiply/divide-like).
	ClassMul
	// ClassFP is a floating-point operation.
	ClassFP
	// ClassLoad reads memory.
	ClassLoad
	// ClassStore writes memory.
	ClassStore
	// ClassBranch is a conditional branch.
	ClassBranch
	numClasses
)

// String returns a short mnemonic for the class.
func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassFP:
		return "fp"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "br"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// NumRegs is the size of the architectural register file modeled by the
// generator and the core's dependence scoreboard.
const NumRegs = 64

// Inst is one dynamic instruction.
//
// For ClassBranch, Taken is the architecturally correct outcome and Target is
// the taken destination. For ClassLoad/ClassStore, Addr is the byte address
// accessed. Register identifiers are in [0, NumRegs); Dst==0 means "writes no
// register" (register 0 is hardwired, as on many RISC ISAs).
type Inst struct {
	PC     uint64
	Addr   uint64
	Target uint64
	Class  Class
	Taken  bool
	Dst    uint8
	Src1   uint8
	Src2   uint8
}

// IsBranch reports whether the instruction is a conditional branch.
func (in Inst) IsBranch() bool { return in.Class == ClassBranch }

// IsMem reports whether the instruction accesses memory.
func (in Inst) IsMem() bool { return in.Class == ClassLoad || in.Class == ClassStore }

// Stats summarizes a generated trace; used by lbptrace and tests.
type Stats struct {
	Insts      int
	Branches   int
	Taken      int
	Loads      int
	Stores     int
	UniquePCs  int
	UniqueBrPC int
}

// Summarize computes aggregate statistics for an in-memory trace.
func Summarize(tr []Inst) Stats {
	s, _ := SummarizeSource(NewSliceSource(tr)) // a SliceSource never errors
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("insts=%d branches=%d (%.1f%% taken) loads=%d stores=%d uniquePCs=%d uniqueBrPCs=%d",
		s.Insts, s.Branches, 100*float64(s.Taken)/float64(max(1, s.Branches)),
		s.Loads, s.Stores, s.UniquePCs, s.UniqueBrPC)
}
