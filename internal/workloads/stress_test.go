package workloads

import (
	"bytes"
	"testing"

	"localbp/internal/trace"
)

// TestStressSuiteShape pins the ladder inventory: three families, the
// documented rung counts, unique names, and categories outside the Table-1
// aggregation range.
func TestStressSuiteShape(t *testing.T) {
	ws := StressSuite()
	if len(ws) != StressSuiteSize || len(ws) != 37 {
		t.Fatalf("StressSuite has %d entries, want 37", len(ws))
	}
	seen := map[string]bool{}
	counts := map[Category]int{}
	for _, w := range ws {
		if seen[w.Name] {
			t.Fatalf("duplicate stressor name %s", w.Name)
		}
		seen[w.Name] = true
		counts[w.Category]++
		if w.Category < NumCategories {
			t.Fatalf("%s: stressor category %v collides with the Table-1 range", w.Name, w.Category)
		}
		if w.Stress == nil {
			t.Fatalf("%s: missing StressSpec", w.Name)
		}
	}
	if counts[LoopExit] != 16 || counts[HistoryCliff] != 11 || counts[Aliasing] != 10 {
		t.Fatalf("ladder counts: %v", counts)
	}
	for _, c := range Categories() {
		if c >= NumCategories {
			t.Fatalf("Categories() gained a stressor category %v", c)
		}
	}
}

// TestStressWorkloadsGenerate checks each family generates a valid stream
// whose branch population matches the swept parameter's intent.
func TestStressWorkloadsGenerate(t *testing.T) {
	byName := func(name string) Workload {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%s) failed", name)
		}
		return w
	}
	const insts = 40_000

	// Loop-exit ladder: a trip count of T means roughly 1-in-T loop-branch
	// visits is an exit (not-taken); the stream must be loop-dominated.
	le := byName("stress-loopexit-0016").Generate(insts)
	if err := trace.Validate(le); err != nil {
		t.Fatalf("loopexit: %v", err)
	}
	st := trace.Summarize(le)
	if st.Branches == 0 || float64(st.Taken)/float64(st.Branches) < 0.80 {
		t.Fatalf("loopexit-16 should be taken-dominated: %+v", st)
	}

	// History cliff: deterministic in the seed, valid, and branchy.
	hc := byName("stress-histcliff-0032")
	a, b := hc.Generate(20_000), hc.Generate(20_000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("histcliff generation not deterministic at %d", i)
		}
	}
	if err := trace.Validate(a); err != nil {
		t.Fatalf("histcliff: %v", err)
	}

	// Aliasing ladder: the hot-branch population must scale with Param —
	// the 1024-loop rung touches far more distinct branch PCs than the
	// 32-loop rung.
	small := trace.Summarize(byName("stress-aliasing-0032").Generate(insts))
	big := trace.Summarize(byName("stress-aliasing-1024").Generate(insts))
	if big.UniqueBrPC < 4*small.UniqueBrPC {
		t.Fatalf("aliasing population did not scale: 32 -> %d PCs, 1024 -> %d PCs",
			small.UniqueBrPC, big.UniqueBrPC)
	}
	if big.UniqueBrPC < 512 {
		t.Fatalf("aliasing-1024 touches only %d branch PCs", big.UniqueBrPC)
	}
}

// TestLBP2CompressionOnQuickSuite asserts LBP2's headline size claim: across
// the quick suite it is at least 2x smaller than raw records.
func TestLBP2CompressionOnQuickSuite(t *testing.T) {
	const insts = 12_000
	var rawTotal, lbp2Total int64
	var buf bytes.Buffer
	for _, w := range QuickSuite() {
		tr := w.Generate(insts)
		rawTotal += int64(trace.RawRecordBytes * len(tr))
		buf.Reset()
		if err := trace.WriteTraceLBP2(&buf, tr); err != nil {
			t.Fatal(err)
		}
		lbp2Total += int64(buf.Len())
	}
	ratio := float64(rawTotal) / float64(lbp2Total)
	t.Logf("quick suite: raw %d B, LBP2 %d B (%.2fx)", rawTotal, lbp2Total, ratio)
	if ratio < 2 {
		t.Fatalf("LBP2 only %.2fx smaller than raw records; format must be >= 2x", ratio)
	}
}
