package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestRegistryCountersAndSources(t *testing.T) {
	r := NewRegistry()
	native := uint64(17)
	r.AddSource("mem", func(emit func(string, uint64)) {
		emit("accesses", native)
	})
	native = 42 // pull model: the snapshot reads the live value
	snap := r.Snapshot()
	want := map[string]uint64{"mem.accesses": 42}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot: got %v, want %v", snap, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{5, 20, 60})
	for _, v := range []int64{3, 5, 6, 20, 21, 60, 61, 1000} {
		h.Observe(v)
	}
	var counts []uint64
	var uppers []int64
	h.Buckets(func(u int64, c uint64) {
		uppers = append(uppers, u)
		counts = append(counts, c)
	})
	if !reflect.DeepEqual(uppers, []int64{5, 20, 60, -1}) {
		t.Fatalf("bucket bounds: got %v", uppers)
	}
	// ≤5: {3,5}; ≤20: {6,20}; ≤60: {21,60}; >60: {61,1000}
	if !reflect.DeepEqual(counts, []uint64{2, 2, 2, 2}) {
		t.Fatalf("bucket counts: got %v", counts)
	}
	if h.Count() != 8 || h.Max() != 1000 {
		t.Fatalf("count/max: got %d/%d", h.Count(), h.Max())
	}
	if r.Histogram("lat", nil) != h {
		t.Fatal("Histogram must return a stable pointer for the same name")
	}
	hs := r.Histograms()
	if len(hs) != 1 || hs[0] != h {
		t.Fatalf("Histograms: got %v", hs)
	}
}

func TestHistogramZeroAlloc(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", MemLatencyBuckets)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(37) })
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates: %.1f allocs/op", allocs)
	}
}

func TestCPIStackAccounting(t *testing.T) {
	s := NewCPIStack()
	s.Add(CPIRetired)
	s.Add(CPIRetired)
	s.Add(CPIFrontendResteer)
	s.Add(CPIMemoryBound)
	if s.Total() != 4 {
		t.Fatalf("total: got %d, want 4", s.Total())
	}
	if s.Count(CPIRetired) != 2 {
		t.Fatalf("retired: got %d, want 2", s.Count(CPIRetired))
	}
	if f := s.Fraction(CPIRetired); f != 0.5 {
		t.Fatalf("fraction: got %v, want 0.5", f)
	}
	var sum int64
	s.Buckets(func(b CPIBucket, c int64) { sum += c })
	if sum != s.Total() {
		t.Fatalf("Buckets sum %d != Total %d", sum, s.Total())
	}
	out := s.String()
	for _, name := range CPIBucketNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("String() missing bucket %q:\n%s", name, out)
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(EvMispredict, int64(i), uint64(0x100+i), int64(i))
	}
	if tr.Total() != 10 {
		t.Fatalf("total: got %d, want 10", tr.Total())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained: got %d, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Cycle != int64(6+i) {
			t.Fatalf("event %d: cycle %d, want %d (oldest-first after wrap)", i, e.Cycle, 6+i)
		}
	}
}

func TestTracerObserver(t *testing.T) {
	tr := NewTracer(2)
	var seen []Event
	tr.Observer = func(e Event) { seen = append(seen, e) }
	tr.Emit(EvRepair, 7, 0x40, 3)
	if len(seen) != 1 || seen[0] != (Event{Kind: EvRepair, Cycle: 7, PC: 0x40, Arg: 3}) {
		t.Fatalf("observer saw %v", seen)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(EvMispredict, 100, 0x4001, 42)
	tr.Emit(EvRepair, 105, 0x4001, 6)
	tr.Emit(EvOBQCoalesce, 110, 0x5000, 3)
	tr.Emit(EvPrefetchHit, 120, 0, 2)
	tr.Emit(EvEarlyResteer, 130, 0x4002, 0)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, map[string]string{"workload": "wl", "scheme": "fw"}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events()) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, tr.Events())
	}
}

func TestDecodeJSONLRejectsUnknownEvent(t *testing.T) {
	_, err := DecodeJSONL(strings.NewReader(`{"cycle":1,"event":"bogus","arg":0}` + "\n"))
	if err == nil {
		t.Fatal("expected error for unknown event name")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(EvRepair, 10, 0x40, 5)
	tr.Emit(EvMispredict, 12, 0x44, 1)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(recs) != 2 {
		t.Fatalf("records: got %d, want 2", len(recs))
	}
	if recs[0]["ph"] != "X" || recs[0]["dur"] != float64(5) {
		t.Fatalf("repair record: got %v, want X-phase with dur 5", recs[0])
	}
	if recs[1]["ph"] != "i" {
		t.Fatalf("mispredict record: got %v, want instant", recs[1])
	}
}

func TestFormatSnapshot(t *testing.T) {
	out := FormatSnapshot(map[string]uint64{"b": 2, "a": 1})
	ia, ib := strings.Index(out, "a"), strings.Index(out, "b")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("snapshot not sorted:\n%s", out)
	}
}
