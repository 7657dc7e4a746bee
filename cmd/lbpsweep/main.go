// Command lbpsweep regenerates the paper's figures and tables.
//
// Usage:
//
//	lbpsweep [-insts N] [-quick] [-workers N] [-checkpoint file] [-timeout D] [-deadline D] [-list] [experiment ids...]
//	lbpsweep -cpistack [-scheme name] [-insts N] [-quick]
//	lbpsweep -trace-events file -workload name [-scheme name] [-insts N] [-seed N]
//	lbpsweep -trace-file file [-scheme name] [-insts N]
//
// Without arguments it runs every experiment (table1 … fig14b, ext*) in
// paper order; results for configurations shared between experiments are
// computed once, and workload runs within a configuration fan out across
// -workers goroutines (GOMAXPROCS by default; results are deterministic in
// the worker count). With -quick the reduced, category-balanced workload
// subset is used.
//
// Resilience:
//
//   - -checkpoint flushes completed experiment outputs to the given file
//     (CRC-stamped, two generations) after each experiment; rerunning the
//     same sweep (same -insts / -warmup / -quick) skips completed
//     experiments and replays their stored output. A corrupt checkpoint is
//     preserved as <file>.corrupt and the previous generation is recovered
//     automatically when valid.
//   - -timeout D bounds each workload run's wall clock, composing with the
//     cycle-domain watchdog (-insts budget and stall detection); a run that
//     exceeds it fails like a stalled one. Failed runs are not retried.
//   - -deadline D bounds the whole invocation's wall clock: on expiry the
//     sweep is canceled exactly like SIGINT (completed experiments stay
//     checkpointed) and the process exits with code 4.
//   - SIGINT/SIGTERM cancel the sweep gracefully: in-flight workload runs
//     stop within one cancellation-check stride, completed experiments are
//     already checkpointed, and the process exits with code 4.
//
// Exit codes: 0 all experiments ok; 1 partial (some experiments or workload
// runs failed); 2 configuration error; 3 every attempted experiment failed;
// 4 interrupted (signal or -deadline).
//
// Observability modes:
//
//   - -cpistack prints a CPI stack (cycle-accounting breakdown) for one
//     representative workload per category under -scheme (default the
//     paper's forward-coalesce). Attribution is audited: every cycle lands
//     in exactly one bucket and the buckets must sum to total cycles.
//   - -trace-events runs -workload under -scheme with the structured event
//     tracer and writes the retained events as JSONL.
//   - -pprof DIR profiles the process: cpu.pprof and heap.pprof plus a
//     runtime-metrics dump (runtime/metrics) land in DIR.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"

	"localbp/internal/harness"
	"localbp/internal/obs"
	"localbp/internal/service"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

func main() { os.Exit(run()) }

// run is main with an exit code: deferred cleanups (profile flushes) must
// execute before the process exits, so nothing below calls os.Exit.
func run() int {
	insts := flag.Int("insts", 300_000, "instructions simulated per workload")
	warmup := flag.Int("warmup", 0, "leading retired instructions excluded from statistics")
	quick := flag.Bool("quick", false, "use the reduced workload subset")
	workers := flag.Int("workers", 0, "concurrent workload runs per configuration (0 = GOMAXPROCS)")
	checkpoint := flag.String("checkpoint", "", "file for checkpoint/resume of completed experiments")
	timeout := flag.Duration("timeout", 0, "wall-clock cap per workload run; a run that exceeds it fails (0 = none)")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline for the whole invocation; on expiry the sweep is canceled and exits 4 (0 = none)")
	auditSample := flag.Int("audit-sample", 0, "run the integrity auditor + golden model on every Nth workload per spec (0 = off)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	verbose := flag.Bool("v", false, "print per-configuration progress")
	schemeName := flag.String("scheme", "forward-coalesce", "scheme for -cpistack / -trace-events (see internal/schemes)")
	workload := flag.String("workload", "", "workload for -trace-events")
	seed := flag.Int64("seed", 0, "override the workload's trace-generation seed for -trace-events (0 = workload default)")
	cpistack := flag.Bool("cpistack", false, "print the per-category CPI-stack table instead of running experiments")
	traceEvents := flag.String("trace-events", "", "write one run's structured events as JSONL to this file (requires -workload)")
	traceFile := flag.String("trace-file", "", "replay this saved trace file (lbp2 or champsim) under -scheme and print the result")
	pprofDir := flag.String("pprof", "", "write cpu.pprof, heap.pprof and a runtime-metrics dump to this directory")
	flag.Parse()
	instsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "insts" {
			instsSet = true
		}
	})

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// SIGINT/SIGTERM cancel the sweep context; workers observe it within one
	// cancellation-check stride and the sweep drains gracefully. A second
	// signal kills the process outright (signal.NotifyContext unregisters
	// after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -deadline composes with signal cancellation: whichever fires first
	// cancels the same context, and both exit 4 with the work checkpointed.
	if *deadline > 0 {
		dctx, cancelDeadline := context.WithTimeout(ctx, *deadline)
		defer cancelDeadline()
		ctx = dctx
	}

	if *pprofDir != "" {
		stopProf, err := startProfiles(*pprofDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbpsweep: %v\n", err)
			return int(service.SweepConfigError)
		}
		defer stopProf()
	}

	opts := harness.Options{Insts: *insts, Quick: *quick, Warmup: *warmup, Workers: *workers,
		AuditSample: *auditSample, RunTimeout: *timeout}

	if *cpistack {
		out, err := harness.CPIStackTable(ctx, opts, *schemeName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbpsweep: %v\n", err)
			if ctx.Err() != nil {
				return int(service.SweepInterrupted)
			}
			return int(service.SweepConfigError)
		}
		fmt.Printf("CPI stacks, %d instructions per workload, scheme %s:\n%s", *insts, *schemeName, out)
		return 0
	}

	if *traceFile != "" {
		n := 0
		if instsSet {
			n = *insts
		}
		if err := replayTraceFile(ctx, *traceFile, *schemeName, n); err != nil {
			fmt.Fprintf(os.Stderr, "lbpsweep: %v\n", err)
			if ctx.Err() != nil {
				return int(service.SweepInterrupted)
			}
			return int(service.SweepConfigError)
		}
		return 0
	}

	if *traceEvents != "" {
		if err := traceOneRun(ctx, opts, *workload, *schemeName, *seed, *traceEvents); err != nil {
			fmt.Fprintf(os.Stderr, "lbpsweep: %v\n", err)
			if ctx.Err() != nil {
				return int(service.SweepInterrupted)
			}
			return int(service.SweepConfigError)
		}
		return 0
	}

	suite := "full suite (202 workloads)"
	if *quick {
		suite = "quick suite (50 workloads)"
	}
	fmt.Printf("lbpsweep: %s, %d instructions per workload\n\n", suite, *insts)

	cfg := service.SweepConfig{
		Opts:       opts,
		IDs:        flag.Args(),
		Checkpoint: *checkpoint,
		Out:        os.Stdout,
		Errs:       os.Stderr,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	rep, err := service.RunSweep(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbpsweep: %v\n", err)
		return int(service.SweepConfigError)
	}
	status := rep.Status()
	fmt.Fprintf(os.Stderr, "lbpsweep: %s: %s\n", status, rep.Summary())
	if status == service.SweepInterrupted && *checkpoint != "" {
		fmt.Fprintf(os.Stderr, "lbpsweep: completed experiments are checkpointed in %s; rerun the same command to resume\n",
			*checkpoint)
	}
	return int(status)
}

// replayTraceFile streams one saved trace file through the simulator under
// one scheme and prints the result line; n > 0 truncates the replay. The
// whole path is fixed-memory: the file is never loaded as a slice.
func replayTraceFile(ctx context.Context, path, schemeName string, n int) error {
	spec, err := harness.SpecFor(schemeName)
	if err != nil {
		return err
	}
	src, err := workloads.FromFile(path).Open(n)
	if err != nil {
		return err
	}
	defer trace.CloseSource(src)
	res, err := harness.Run(ctx, src, spec)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Printf("%s × %s: %d insts, %d cycles, IPC %.3f, MPKI %.3f\n",
		filepath.Base(path), schemeName, st.Insts, st.Cycles, st.IPC(), st.MPKI())
	return nil
}

// traceOneRun simulates one workload under one scheme with the event tracer
// attached and writes the retained events as JSONL.
func traceOneRun(ctx context.Context, o harness.Options, workload, schemeName string, seed int64, path string) error {
	if workload == "" {
		return fmt.Errorf("-trace-events requires -workload (see lbptrace -list)")
	}
	w, ok := workloads.ByName(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seed != 0 {
		w.Seed = seed
	}
	spec, err := harness.SpecFor(schemeName)
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	spec.Obs = &harness.ObsSpec{TraceCap: 1 << 16, Done: func(h *obs.Hooks) { tracer = h.Tracer }}
	tr := w.Generate(o.Insts)
	if err := trace.Validate(tr); err != nil {
		return err
	}
	res, err := harness.Run(ctx, trace.NewSliceSource(tr), spec)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	labels := map[string]string{
		"workload": w.Name,
		"scheme":   schemeName,
		"insts":    fmt.Sprint(o.Insts),
	}
	if err := tracer.WriteJSONL(f, labels); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st := res.Stats
	fmt.Printf("%s × %s: %d cycles, IPC %.3f, MPKI %.3f\n",
		w.Name, schemeName, st.Cycles, st.IPC(), st.MPKI())
	fmt.Printf("wrote %s (%d events emitted, %d retained)\n",
		path, tracer.Total(), len(tracer.Events()))
	return nil
}

// startProfiles begins CPU profiling into dir and returns the stop hook
// that also captures a heap profile and a runtime/metrics dump.
func startProfiles(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpu.Close()

		heap, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err == nil {
			runtime.GC() // up-to-date allocation statistics
			pprof.WriteHeapProfile(heap)
			heap.Close()
		}

		if f, err := os.Create(filepath.Join(dir, "runtime-metrics.txt")); err == nil {
			writeRuntimeMetrics(f)
			f.Close()
		}
		fmt.Fprintf(os.Stderr, "lbpsweep: profiles written to %s\n", dir)
	}, nil
}

// writeRuntimeMetrics dumps every runtime/metrics sample in name-sorted
// order (the package returns descriptions pre-sorted by name).
func writeRuntimeMetrics(f *os.File) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Fprintf(f, "%-60s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Fprintf(f, "%-60s %g\n", s.Name, s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			var n uint64
			for _, c := range h.Counts {
				n += c
			}
			fmt.Fprintf(f, "%-60s histogram, %d samples\n", s.Name, n)
		}
	}
}
