package localbp

// The benchmark harness regenerates every figure and table of the paper's
// evaluation (see DESIGN.md §5 for the index). Each benchmark runs its
// experiment once per iteration over the quick workload subset (the full
// 202-workload suite is the lbpsweep command's job) and reports the
// experiment's headline numbers as benchmark metrics, so
//
//	go test -bench=Fig11 -benchmem
//
// both regenerates the artifact and times it. Ablation benchmarks at the
// bottom quantify the design choices DESIGN.md §7 calls out.

import (
	"context"
	"testing"

	"localbp/internal/bpu/loop"
	"localbp/internal/core"
	"localbp/internal/harness"
	"localbp/internal/metrics"
	"localbp/internal/repair"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

const benchInsts = 60_000

func benchRunner() *harness.Runner {
	return harness.NewRunner(harness.Options{Insts: benchInsts, Quick: true})
}

// benchExperiment times one full experiment regeneration.
func benchExperiment(b *testing.B, id string) {
	e, ok := harness.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		out, err := e.Run(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		if out == "" {
			b.Fatal("experiment produced no output")
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig7a(b *testing.B)  { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { benchExperiment(b, "fig7b") }
func BenchmarkFig7c(b *testing.B)  { benchExperiment(b, "fig7c") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig14a(b *testing.B) { benchExperiment(b, "fig14a") }
func BenchmarkFig14b(b *testing.B) { benchExperiment(b, "fig14b") }
func BenchmarkExt1(b *testing.B)   { benchExperiment(b, "ext1") }
func BenchmarkExt2(b *testing.B)   { benchExperiment(b, "ext2") }

// BenchmarkSimulatorThroughput measures raw core model speed (instructions
// per second) on a representative workload with the headline configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workloads.ByName("sysmark-photoshop")
	tr := w.Generate(200_000)
	spec := harness.PaperForwardWalk(loop.Loop128())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun(b, tr, spec)
	}
	b.SetBytes(200_000) // report "bytes" as instructions simulated
}

// BenchmarkTAGEPredict measures predictor-only throughput.
func BenchmarkTAGEPredict(b *testing.B) {
	w, _ := workloads.ByName("geekbench-03")
	tr := w.Generate(100_000)
	spec := harness.BaselineSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun(b, tr, spec)
	}
}

// benchRun simulates tr under spec, failing the benchmark on error.
func benchRun(b *testing.B, tr []trace.Inst, spec harness.Spec) {
	if _, err := harness.Run(context.Background(), trace.NewSliceSource(tr), spec); err != nil {
		b.Fatal(err)
	}
}

// --- observability overhead (DESIGN.md §11) ---

// benchCoreLoop drives the facade end-to-end over a fixed pre-generated
// trace so the measurement is the simulator core loop plus whatever the
// given options enable. ns/inst and ns/cycle normalize the headline number;
// perfbench/ measures the same pinned run end to end with repeated samples.
func benchCoreLoop(b *testing.B, opts ...Option) {
	w, _ := workloads.ByName("cloud-compression")
	tr := w.Generate(120_000)
	ref, err := FromSource(trace.NewSliceSource(tr), ForwardWalk(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromSource(trace.NewSliceSource(tr), ForwardWalk(), opts...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perOp/float64(len(tr)), "ns/inst")
	b.ReportMetric(perOp/float64(ref.Cycles), "ns/cycle")
}

// BenchmarkCoreLoop is the obs-disabled reference: the hot loop pays only
// nil checks for the observability layer.
func BenchmarkCoreLoop(b *testing.B) { benchCoreLoop(b) }

// BenchmarkCoreLoopObs carries every instrument: CPI stack, counter
// registry, event tracer.
func BenchmarkCoreLoopObs(b *testing.B) {
	benchCoreLoop(b, WithCPIStack(), WithCounters(), WithEventTrace(4096))
}

// --- ablation benches (DESIGN.md §7) ---

// ablationDelta reports the suite-level MPKI reduction of a spec variant
// against the shared baseline as benchmark metrics.
func ablationDelta(b *testing.B, mk func() harness.Spec) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		base := r.Results(harness.BaselineSpec())
		exp := r.Results(mk())
		red := metrics.MeanReduction(collect(base), collect(exp))
		b.ReportMetric(red, "MPKIredn%")
	}
}

func collect(rs []metrics.Result) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = rs[i].MPKI
	}
	return out
}

// BenchmarkAblationWrongPath quantifies substitution 2 of DESIGN.md §3:
// disabling wrong-path synthesis removes BHT pollution and overstates the
// no-repair configuration.
func BenchmarkAblationWrongPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		with := harness.NoRepairSpec(loop.Loop128())
		without := harness.NoRepairSpec(loop.Loop128())
		without.Label = "no-repair-no-wrongpath"
		cfg := core.DefaultConfig()
		cfg.WrongPath = false
		without.Core = cfg
		base := r.Results(harness.BaselineSpec())
		a := metrics.MeanReduction(collect(base), collect(r.Results(with)))
		bb := metrics.MeanReduction(collect(base), collect(r.Results(without)))
		b.ReportMetric(a, "withWP%")
		b.ReportMetric(bb, "noWP%")
	}
}

// BenchmarkAblationCoalescing isolates the OBQ-coalescing gain (Figure 11's
// final bar) at high OBQ pressure (16 entries).
func BenchmarkAblationCoalescing(b *testing.B) {
	mkFwd := func(coalesce bool, label string) func() harness.Spec {
		return func() harness.Spec {
			s := harness.ForwardWalkSpec(loop.Loop128(), 16,
				repair.Ports{CkptRead: 4, BHTWrite: 2}, coalesce)
			s.Label = label
			return s
		}
	}
	b.Run("plain", func(b *testing.B) { ablationDelta(b, mkFwd(false, "fwd16-plain")) })
	b.Run("coalesced", func(b *testing.B) { ablationDelta(b, mkFwd(true, "fwd16-coalesced")) })
}

// BenchmarkAblationInvalidate compares limited-PC's two non-repaired-PC
// policies (paper §3.3: leaving them as-is wins).
func BenchmarkAblationInvalidate(b *testing.B) {
	b.Run("leave", func(b *testing.B) {
		ablationDelta(b, func() harness.Spec { return harness.LimitedPCSpec(loop.Loop128(), 4, 4, false) })
	})
	b.Run("invalidate", func(b *testing.B) {
		ablationDelta(b, func() harness.Spec { return harness.LimitedPCSpec(loop.Loop128(), 4, 4, true) })
	})
}

// BenchmarkAblationConfidence sweeps the loop predictor's override
// confidence threshold.
func BenchmarkAblationConfidence(b *testing.B) {
	for _, thresh := range []uint8{4, 6, 7} {
		cfg := loop.Loop128()
		cfg.ConfThresh = thresh
		cfg.Name = "Loop128-conf"
		b.Run(map[uint8]string{4: "conf4", 6: "conf6", 7: "conf7"}[thresh], func(b *testing.B) {
			ablationDelta(b, func() harness.Spec { return harness.PerfectSpec(cfg) })
		})
	}
}

// BenchmarkAblationDepth shows that deeper front ends make repair matter
// more (the paper's retire-update trend).
func BenchmarkAblationDepth(b *testing.B) {
	for _, depth := range []int64{6, 14} {
		depth := depth
		b.Run(map[int64]string{6: "depth6", 14: "depth14"}[depth], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := benchRunner()
				cfg := core.DefaultConfig()
				cfg.FrontendDepth = depth
				base := harness.BaselineSpec()
				base.Label = "tage-depth"
				base.Core = cfg
				perf := harness.PerfectSpec(loop.Loop128())
				perf.Label = "perfect-depth"
				perf.Core = cfg
				gain := metrics.IPCGainPct(ipcsOf(r.Results(base)), ipcsOf(r.Results(perf)))
				b.ReportMetric(gain, "dIPC%")
			}
		})
	}
}

func ipcsOf(rs []metrics.Result) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = rs[i].IPC
	}
	return out
}

// BenchmarkTraceGeneration measures the synthetic workload generator.
func BenchmarkTraceGeneration(b *testing.B) {
	w, _ := workloads.ByName("hadoop-analytics-01")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := w.Generate(100_000)
		if len(tr) != 100_000 {
			b.Fatal("short trace")
		}
	}
}

// BenchmarkTraceEncode measures the LBP2 trace encoder.
func BenchmarkTraceEncode(b *testing.B) {
	w, _ := workloads.ByName("hadoop-analytics-01")
	tr := w.Generate(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countingWriter
		if err := trace.WriteTraceLBP2(&sink, tr); err != nil {
			b.Fatal(err)
		}
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
