// Package schemes builds the repair scheme of one named configuration
// without a harness.Spec around it. It is kept only for perfbench's traced
// run, which drives a bpu.Unit directly; everything else resolves names
// through harness.SpecFor, whose grammar it shares.
package schemes

import (
	"localbp/internal/harness"
	"localbp/internal/repair"
)

// Def describes how to drive a built scheme.
type Def struct {
	// Oracle marks the never-mispredicting local predictor of Figure 4.
	Oracle bool
}

// Build resolves a configuration name through harness.SpecFor and
// constructs its scheme (nil for a TAGE-only baseline).
func Build(name string) (repair.Scheme, *Def, error) {
	s, err := harness.SpecFor(name)
	if err != nil {
		return nil, nil, err
	}
	d := &Def{Oracle: s.Oracle}
	if s.Scheme == nil {
		return nil, d, nil
	}
	return s.Scheme(), d, nil
}
