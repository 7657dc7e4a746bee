package harness

import (
	"context"
	"errors"
	"io"
	"slices"
	"sync"
	"testing"

	"localbp/internal/audit"
	"localbp/internal/core"
	"localbp/internal/mem"
	"localbp/internal/obs"
	"localbp/internal/repair"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// observed is everything a run reports: the returned stats and every
// observability instrument.
type observed struct {
	st     core.Stats
	rst    repair.Stats
	cpi    [obs.NumCPIBuckets]int64
	snap   map[string]uint64
	hists  []string
	events []obs.Event
}

// observeRun runs spec over src with every instrument on and the full event
// stream captured.
func observeRun(src trace.Source, spec Spec) (observed, error) {
	var o observed
	spec.Obs = &ObsSpec{
		CPIStack: true, Counters: true, TraceCap: 1,
		Observer: func(e obs.Event) { o.events = append(o.events, e) },
		Done: func(h *obs.Hooks) {
			h.CPI.Buckets(func(b obs.CPIBucket, n int64) { o.cpi[b] = n })
			o.snap = h.Reg.Snapshot()
			for _, hist := range h.Reg.Histograms() {
				o.hists = append(o.hists, hist.String())
			}
		},
	}
	res, err := Run(context.Background(), src, spec)
	o.st = res.Stats
	if res.Repair != nil {
		o.rst = *res.Repair
	}
	return o, err
}

// diff names the first instrument on which a and b disagree ("" if none).
func (a observed) diff(b observed) string {
	switch {
	case a.st != b.st:
		return "core stats"
	case a.rst != b.rst:
		return "repair stats"
	case a.cpi != b.cpi:
		return "CPI stack"
	case len(a.snap) != len(b.snap):
		return "counter registry"
	case !slices.Equal(a.hists, b.hists):
		return "histograms"
	case !slices.Equal(a.events, b.events):
		return "event trace"
	}
	for k, v := range a.snap {
		if w, ok := b.snap[k]; !ok || w != v {
			return "counter " + k
		}
	}
	return ""
}

// TestMemTrackDifferential pins the track's exactness contract: a run handed
// its trace's cached memory-outcome track must match the run whose own
// producer goroutine probes the hierarchy, in every reported number — core
// and repair stats, the CPI stack, the counter registry (mem accesses,
// misses and prefetch hits included), the latency histograms and the full
// event stream. The matrix is every Table 3 spec plus the iso-storage,
// 57KB-TAGE and oracle specs, over the quick suite and the stressor ladder,
// with and without warmup. The streamed leg replays traces longer than
// three refill chunks through a source that returns short reads, so the
// producer probes chunk by chunk while refill slides the window. The other
// subtests pin how the TraceCache builds and shares the track, and the
// track's integrity errors.
func TestMemTrackDifferential(t *testing.T) {
	cfg := core.DefaultConfig().Mem
	t.Run("Matrix", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs 14 specs over the quick suite and the stressor ladder")
		}
		names := append([]string{"tage", "perfect"}, table3Rows...)
		matrix, err := specs(append(names, "tage9", "oracle-local", "tage57-forward-coalesce")...)
		if err != nil {
			t.Fatal(err)
		}
		const n = 8_000
		tc := NewTraceCache()
		for _, w := range append(workloads.QuickSuite(), workloads.StressSuite()...) {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				tr, track, err := tc.getTracked(w, n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if track == nil {
					t.Fatal("no track for the configuration that built it")
				}
				for _, spec := range matrix {
					for _, warmup := range []uint64{0, 1000} {
						spec.Core.WarmupInsts = warmup
						checkHandedTrack(t, trace.NewSliceSource(tr), tr, track, spec)
					}
				}
			})
		}
	})

	t.Run("Streamed", func(t *testing.T) {
		matrix, err := specs("tage", "perfect", "forward-coalesce", "snapshot")
		if err != nil {
			t.Fatal(err)
		}
		const n = 100_000 // more than three refill chunks
		tc := NewTraceCache()
		for _, w := range workloads.QuickSuite()[:2] {
			tr, track, err := tc.getTracked(w, n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range matrix {
				for _, warmup := range []uint64{0, 1000} {
					spec.Core.WarmupInsts = warmup
					checkHandedTrack(t, &shortReads{tr: tr}, tr, track, spec)
				}
			}
		}
	})

	t.Run("ConcurrentGets", func(t *testing.T) {
		tc := NewTraceCache()
		w := workloads.QuickSuite()[2]
		tracks := make([][]mem.Outcome, 4)
		var wg sync.WaitGroup
		for i := range tracks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, tracks[i], _ = tc.getTracked(w, 4_000, cfg)
			}()
		}
		wg.Wait()
		for _, tr := range tracks {
			if len(tr) == 0 || &tr[0] != &tracks[0][0] {
				t.Fatal("concurrent requests did not share one track")
			}
		}
		if !slices.Equal(tracks[0], core.MemTrack(cfg, w.Generate(4_000))) {
			t.Fatal("cached track differs from a fresh recording")
		}
	})

	w := workloads.QuickSuite()[0]
	tr := w.Generate(4_000)
	track := core.MemTrack(cfg, tr)
	lengthCases := []struct {
		name  string
		track []mem.Outcome
	}{
		{"TrackShort", track[:len(track)-1]},
		{"TrackLong", append(slices.Clip(track), track[0])},
	}
	for _, tc := range lengthCases {
		t.Run(tc.name, func(t *testing.T) {
			spec := mustSpecFor("forward-coalesce")
			spec.memTrack = tc.track
			_, err := runTrace(tr, spec)
			var ie *audit.IntegrityError
			if !errors.As(err, &ie) || ie.Invariant != audit.InvMemTrack {
				t.Fatalf("got %v, want an %s integrity error", err, audit.InvMemTrack)
			}
		})
	}

	t.Run("OtherConfigRunsLive", func(t *testing.T) {
		tc := NewTraceCache()
		if _, track, _ := tc.getTracked(w, 4_000, cfg); track == nil {
			t.Fatal("first request got no track")
		}
		other := cfg
		other.DRAMLatency++
		if _, track, _ := tc.getTracked(w, 4_000, other); track != nil {
			t.Fatal("a request under another hierarchy config was served the track")
		}
	})
}

// checkHandedTrack runs spec over src, whose producer fills the track, and
// over tr handed its cached track, and requires every instrument to agree.
func checkHandedTrack(t *testing.T, src trace.Source, tr []trace.Inst, track []mem.Outcome, spec Spec) {
	t.Helper()
	fed, err := observeRun(src, spec)
	if err != nil {
		t.Fatalf("%s: producer-fed run: %v", spec.Label, err)
	}
	spec.memTrack = track
	handed, err := observeRun(trace.NewSliceSource(tr), spec)
	if err != nil {
		t.Fatalf("%s: handed-track run: %v", spec.Label, err)
	}
	if d := fed.diff(handed); d != "" {
		t.Errorf("%s warmup=%d: the handed track diverges from the producer in %s",
			spec.Label, spec.Core.WarmupInsts, d)
	}
	if fed.snap["mem.accesses"] == 0 {
		t.Fatalf("%s: no mem accesses counted", spec.Label)
	}
}

// shortReads streams tr in reads of at most 1009 instructions and hides the
// slice, so Run takes the core's sliding window.
type shortReads struct {
	tr  []trace.Inst
	pos int
}

func (s *shortReads) Next(dst []trace.Inst) (int, error) {
	if s.pos == len(s.tr) {
		return 0, io.EOF
	}
	n := copy(dst[:min(len(dst), 1009)], s.tr[s.pos:])
	s.pos += n
	return n, nil
}

func (s *shortReads) Len() int { return len(s.tr) }
