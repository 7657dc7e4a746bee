package audit

import (
	"slices"
	"testing"
)

// TestScanDue: a loop that visits every cycle scans once per stride, at its
// boundaries; a loop that skips cycles scans at the first cycle it reaches
// at or after each boundary, once however many boundaries it skipped.
func TestScanDue(t *testing.T) {
	var everyCycle []int64
	for c := int64(0); c <= 200; c++ {
		everyCycle = append(everyCycle, c)
	}
	for _, tc := range []struct {
		name          string
		cycles, scans []int64
	}{
		{"every-cycle", everyCycle, []int64{0, 64, 128, 192}},
		{"skipping", []int64{0, 1, 70, 71, 127, 128, 129, 400, 401, 447, 448}, []int64{0, 70, 128, 400, 448}},
	} {
		a := New()
		var got []int64
		for _, c := range tc.cycles {
			if a.ScanDue(c) {
				got = append(got, c)
			}
		}
		if !slices.Equal(got, tc.scans) {
			t.Errorf("%s: scans at %v, want %v", tc.name, got, tc.scans)
		}
	}
}
