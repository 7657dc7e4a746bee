package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGRangeBounds(t *testing.T) {
	f := func(seed int64, lo int16, span uint8) bool {
		l, h := int(lo), int(lo)+int(span)
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Range(l, h)
			if v < l || v > h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGRangePanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range(5, 4) did not panic")
		}
	}()
	NewRNG(1).Range(5, 4)
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", frac)
	}
}
