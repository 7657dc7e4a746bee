package localbp

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"localbp/internal/trace"
)

// The golden-values file pins the simulator's observable results — cycles,
// retired instructions, branches, final mispredictions, and the full CPI
// stack — for every quick-suite workload under four loop-predictor repair
// schemes and the Yeh-Patt predictor under forward walk. The no-repair,
// forward-walk and perfect rows were generated by the pre-optimization
// model and guard the hot-path overhaul and every engine change since: the
// resolution queue, the idle-cycle fast-forward and the allocation pools
// must all be bit-identical transformations. The Yeh-Patt rows were
// generated before the two local predictors came to share one BHT, and pin
// that refactor. The snapshot-queue rows were generated while perfect
// repair and the snapshot queue still copied the whole BHT per branch, and
// pin the undo journal that replaced the copies. Regenerate only when the
// *model* (not the engine) deliberately changes:
//
//	go test -run TestGoldenBitIdentical -update-golden .
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_quick.json from the current simulator")

const goldenInsts = 24_000

// goldenRow is one (workload, scheme) result cell.
type goldenRow struct {
	Workload    string  `json:"workload"`
	Scheme      string  `json:"scheme"`
	Cycles      int64   `json:"cycles"`
	Insts       uint64  `json:"insts"`
	Branches    uint64  `json:"branches"`
	Mispredicts uint64  `json:"mispredicts"`
	CPI         []int64 `json:"cpi"` // per-bucket cycle counts, bucket order
}

func goldenSchemes() []Scheme {
	return []Scheme{NoRepair(), ForwardWalk(), PerfectRepair(), GenericLocal(), SnapshotQueue()}
}

func goldenRun(t *testing.T) []goldenRow {
	t.Helper()
	var rows []goldenRow
	for _, w := range QuickWorkloads() {
		tr := w.Generate(goldenInsts)
		for _, s := range goldenSchemes() {
			res, err := FromSource(trace.NewSliceSource(tr), s, WithCPIStack())
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, s.Label(), err)
			}
			cpi := make([]int64, NumCPIBuckets)
			for b := CPIBucket(0); b < NumCPIBuckets; b++ {
				cpi[b] = res.CPI.Count(b)
			}
			// A bare (obs-disabled) run must report the same cycle count:
			// observability and the fast-forward clamps it adds are
			// strictly read-only.
			bare, err := FromSource(trace.NewSliceSource(tr), s)
			if err != nil {
				t.Fatalf("%s/%s (bare): %v", w.Name, s.Label(), err)
			}
			if bare.Cycles != res.Cycles || bare.Mispredicts != res.Mispredicts {
				t.Fatalf("%s/%s: obs-enabled run diverged from bare run: cycles %d vs %d, mispredicts %d vs %d",
					w.Name, s.Label(), res.Cycles, bare.Cycles, res.Mispredicts, bare.Mispredicts)
			}
			rows = append(rows, goldenRow{
				Workload:    w.Name,
				Scheme:      s.Label(),
				Cycles:      res.Cycles,
				Insts:       res.Insts,
				Branches:    res.Branches,
				Mispredicts: res.Mispredicts,
				CPI:         cpi,
			})
		}
	}
	return rows
}

// TestGoldenBitIdentical proves the optimized engine produces exactly the
// simulation results the pre-optimization engine produced: same cycles, same
// retirement counts, same mispredictions, same per-bucket CPI attribution,
// for every quick-suite workload under no-repair, forward-coalesce, perfect
// repair, the Yeh-Patt predictor under forward walk and the snapshot queue.
func TestGoldenBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-suite sweep")
	}
	path := filepath.Join("testdata", "golden_quick.json")
	got := goldenRun(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden rows to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (generate with -update-golden): %v", err)
	}
	var want []goldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	// Every CPI bucket must name an event that happens: a bucket at zero in
	// every row cannot explain a moved number.
	for b := CPIBucket(0); b < NumCPIBuckets; b++ {
		var sum int64
		for _, r := range want {
			if int(b) < len(r.CPI) {
				sum += r.CPI[b]
			}
		}
		if sum == 0 {
			t.Errorf("CPI bucket %s is 0 in all %d golden rows", b, len(want))
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden rows: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("row %d (%s/%s) diverged:\n got  %+v\n want %+v",
				i, want[i].Workload, want[i].Scheme, got[i], want[i])
		}
	}
}
