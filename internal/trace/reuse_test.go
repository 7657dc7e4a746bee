package trace

import (
	"reflect"
	"testing"
)

func reuseProgram() Program {
	return Program{Regions: []Region{
		Loop{Site: 1, Periods: FixedPeriod(9), Body: []Region{Block{Site: 2, Len: 6}}},
		Cond{Site: 3, Outcome: BiasedPattern{P: 0.7}, ThenLen: 4},
	}}
}

// TestGenerateIntoReusesBuffer checks GenerateInto writes into the provided
// chunk without reallocating and produces a stream bit-identical to
// Generate.
func TestGenerateIntoReusesBuffer(t *testing.T) {
	p := reuseProgram()
	const n = 5_000
	want := Generate(p, n, 42)

	buf := make([]Inst, 0, n+64)
	got := GenerateInto(buf, p, n, 42)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GenerateInto stream differs from Generate")
	}
	if &got[0] != &buf[:1][0] {
		t.Fatalf("GenerateInto allocated despite sufficient capacity")
	}

	// Reuse after a different generation: contents must still be exact.
	other := GenerateInto(got, p, n, 7)
	want7 := Generate(p, n, 7)
	if !reflect.DeepEqual(other, want7) {
		t.Fatalf("GenerateInto into dirty buffer differs from fresh Generate")
	}

	// Insufficient capacity falls back to allocation, same contents.
	small := GenerateInto(make([]Inst, 0, 10), p, n, 42)
	if !reflect.DeepEqual(small, want) {
		t.Fatalf("GenerateInto with small dst differs from Generate")
	}
}
