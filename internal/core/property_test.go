package core

import (
	"testing"
	"testing/quick"

	"localbp/internal/bpu"
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/repair"
	"localbp/internal/trace"
)

// TestPipelineInvariantsProperty drives random small programs through the
// pipeline with the headline scheme and checks structural invariants: every
// instruction retires exactly once, branch accounting is consistent, and
// cycle counts are sane.
func TestPipelineInvariantsProperty(t *testing.T) {
	f := func(seed int64, period, bodyLen, biasPct uint8) bool {
		p := int(period%60) + 2
		bl := int(bodyLen%20) + 1
		bias := 0.5 + float64(biasPct%50)/100
		prog := trace.Program{Regions: []trace.Region{
			trace.Loop{Site: 0, Periods: trace.FixedPeriod(p), Body: []trace.Region{
				trace.Block{Site: 1, Len: bl},
				trace.Cond{Site: 2, Outcome: trace.BiasedPattern{P: bias}, ThenLen: 2, ElseLen: 1},
			}},
			trace.Block{Site: 3, Len: bl + 2},
		}}
		const n = 20_000
		tr := trace.Generate(prog, n, seed)
		scheme := repair.NewForwardWalk(loop.Loop128(), 32, repair.Ports{CkptRead: 4, BHTWrite: 2}, true)
		st, err := simulate(New(DefaultConfig(), bpu.NewUnit(tage.KB8(), scheme), tr))
		if err != nil {
			return false
		}
		if st.Insts != n {
			return false
		}
		if st.Branches != uint64(trace.Summarize(tr).Branches) {
			return false
		}
		if st.Mispredicts > st.Branches {
			return false
		}
		// IPC bounded by the machine width; cycles at least n/width.
		if st.Cycles < int64(n)/int64(DefaultConfig().Width) {
			return false
		}
		return st.IPC() > 0 && st.IPC() <= float64(DefaultConfig().Width)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
