package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func simpleProgram() Program {
	return Program{
		Regions: []Region{
			Loop{Site: 0, Periods: FixedPeriod(10), Body: []Region{
				Block{Site: 1, Len: 5},
			}},
			Cond{Site: 2, Outcome: &RepeatingPattern{Pattern: []bool{true, false}}, ThenLen: 3, ElseLen: 2},
			Block{Site: 3, Len: 8},
		},
	}
}

func TestGenerateLength(t *testing.T) {
	for _, n := range []int{1, 100, 12345} {
		tr := Generate(simpleProgram(), n, 1)
		if len(tr) != n {
			t.Fatalf("Generate(n=%d) returned %d instructions", n, len(tr))
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(simpleProgram(), 5000, 7)
	b := Generate(simpleProgram(), 5000, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same program+seed produced different traces")
	}
	c := Generate(simpleProgram(), 5000, 8)
	if reflect.DeepEqual(a[:100], c[:100]) {
		t.Fatal("different seeds produced identical prefixes")
	}
}

func TestGeneratePanicsOnEmptyProgram(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty program did not panic")
		}
	}()
	Generate(Program{}, 10, 1)
}

func TestLoopBranchOutcomes(t *testing.T) {
	// A fixed loop of period P must emit P-1 taken followed by one
	// not-taken at the loop-closing PC, repeatedly.
	prog := Program{Regions: []Region{
		Loop{Site: 0, Periods: FixedPeriod(4), Body: []Region{Block{Site: 1, Len: 2}}},
	}}
	tr := Generate(prog, 2000, 3)
	pc := SitePC(0)
	var outcomes []bool
	for _, in := range tr {
		if in.IsBranch() && in.PC == pc {
			outcomes = append(outcomes, in.Taken)
		}
	}
	if len(outcomes) < 12 {
		t.Fatalf("too few loop-branch instances: %d", len(outcomes))
	}
	for i := 0; i+4 <= len(outcomes); i += 4 {
		got := outcomes[i : i+4]
		want := []bool{true, true, true, false}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("visit starting at instance %d: got %v want TTTN", i, got)
		}
	}
}

func TestLoopBranchPCStable(t *testing.T) {
	tr := Generate(simpleProgram(), 5000, 1)
	pcs := map[uint64]bool{}
	for _, in := range tr {
		if in.IsBranch() {
			pcs[in.PC] = true
		}
	}
	if len(pcs) != 2 { // loop site 0 and cond site 2
		t.Fatalf("expected 2 branch PCs, got %d", len(pcs))
	}
	if !pcs[SitePC(0)] || !pcs[SitePC(2)] {
		t.Fatalf("branch PCs not at site bases: %v", pcs)
	}
}

func TestCondEmitsThenElse(t *testing.T) {
	prog := Program{Regions: []Region{
		Cond{Site: 0, Outcome: &RepeatingPattern{Pattern: []bool{true, false}}, ThenLen: 3, ElseLen: 2},
	}}
	tr := Generate(prog, 200, 5)
	// Instruction after a not-taken cond must be the then-block
	// (pc+0x100); after a taken cond the else-block (pc+0x200).
	base := SitePC(0)
	for i, in := range tr {
		if !in.IsBranch() || i+1 >= len(tr) {
			continue
		}
		next := tr[i+1].PC
		if in.Taken && next != base+0x200 {
			t.Fatalf("taken cond followed by %#x, want else block %#x", next, base+0x200)
		}
		if !in.Taken && next != base+0x100 {
			t.Fatalf("not-taken cond followed by %#x, want then block %#x", next, base+0x100)
		}
	}
}

func TestRegistersInRange(t *testing.T) {
	tr := Generate(simpleProgram(), 10000, 2)
	for i, in := range tr {
		if int(in.Dst) >= NumRegs || int(in.Src1) >= NumRegs || int(in.Src2) >= NumRegs {
			t.Fatalf("instruction %d has out-of-range register: %+v", i, in)
		}
	}
}

func TestMemInstructionsHaveAddresses(t *testing.T) {
	tr := Generate(simpleProgram(), 10000, 2)
	for i, in := range tr {
		if in.IsMem() && in.Addr == 0 {
			t.Fatalf("memory instruction %d has zero address", i)
		}
	}
}

func TestStoresWriteNoRegister(t *testing.T) {
	tr := Generate(simpleProgram(), 20000, 2)
	for i, in := range tr {
		if in.Class == ClassStore && in.Dst != 0 {
			t.Fatalf("store %d writes register %d", i, in.Dst)
		}
	}
}

func TestIndependenceShapesOperands(t *testing.T) {
	// Higher independence must produce fewer zero-register... rather:
	// traces generated with different Independence must differ.
	p1 := simpleProgram()
	p1.Independence = 0.1
	p2 := simpleProgram()
	p2.Independence = 0.95
	a := Generate(p1, 3000, 9)
	b := Generate(p2, 3000, 9)
	diff := 0
	for i := range a {
		if a[i].Src1 != b[i].Src1 {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("Independence had no effect on operand selection")
	}
}

func TestSummarize(t *testing.T) {
	tr := Generate(simpleProgram(), 10000, 1)
	s := Summarize(tr)
	if s.Insts != 10000 {
		t.Fatalf("Insts = %d", s.Insts)
	}
	if s.Branches == 0 || s.Loads == 0 || s.Stores == 0 {
		t.Fatalf("degenerate summary: %+v", s)
	}
	if s.Taken > s.Branches {
		t.Fatalf("taken %d > branches %d", s.Taken, s.Branches)
	}
	if s.UniqueBrPC == 0 || s.UniqueBrPC > s.UniquePCs {
		t.Fatalf("bad PC counts: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

// TestEncodeRoundTrip: a generated trace survives the trace encoder
// unchanged, so the generator only emits records the on-disk format can
// represent (no Addr outside loads and stores, no Target outside branches).
func TestEncodeRoundTrip(t *testing.T) {
	tr := Generate(simpleProgram(), 5000, 13)
	var buf bytes.Buffer
	if err := WriteTraceLBP2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceLBP2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("round trip mismatch")
	}
}

// TestEncodeRoundTripProperty: arbitrary 64-bit PCs, addresses and targets
// round trip, so the zigzag deltas hold across wraparound, not only across
// the small strides real traces take.
func TestEncodeRoundTripProperty(t *testing.T) {
	f := func(pcs []uint64, classes []uint8, takens []bool) bool {
		n := min(len(pcs), len(classes), len(takens))
		tr := make([]Inst, n)
		for i := 0; i < n; i++ {
			in := Inst{
				PC:    pcs[i],
				Class: Class(classes[i] % uint8(numClasses)),
				Taken: takens[i],
				Dst:   uint8(pcs[i] % NumRegs),
			}
			switch in.Class {
			case ClassBranch:
				in.Target = ^pcs[i]
			case ClassLoad, ClassStore:
				in.Addr = pcs[i] >> 3
			}
			tr[i] = in
		}
		var buf bytes.Buffer
		if err := WriteTraceLBP2(&buf, tr); err != nil {
			return false
		}
		got, err := ReadTraceLBP2(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(tr) {
			return false
		}
		for i := range tr {
			if tr[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReadTraceRejectsGarbage: a file that is neither LBP2 nor a
// .champsim/.cst trace, and an empty file, are refused with an error naming
// the file rather than replayed as an empty or garbled stream.
func TestReadTraceRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		"garbage.trace": "not a trace file at all",
		"empty.lbp2":    "",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenSource(path)
		if err == nil {
			CloseSource(src)
			t.Fatalf("%s accepted", name)
		}
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: error does not name the file: %v", name, err)
		}
	}
}

func TestEmitterGlobalHistory(t *testing.T) {
	// The architectural history must reflect emitted branch outcomes
	// (low bit = most recent).
	e := &Emitter{rng: NewRNG(1), limit: 100, prof: DefaultMemProfile(), depDist: 4, indep: 0.5}
	e.EmitBranch(0x1000, true, 0)
	e.EmitBranch(0x1004, false, 0)
	e.EmitBranch(0x1008, true, 0)
	if got := e.Hist() & 0b111; got != 0b101 {
		t.Fatalf("history = %03b, want 101", got)
	}
}
