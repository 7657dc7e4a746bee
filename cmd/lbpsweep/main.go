// Command lbpsweep regenerates the paper's figures and tables.
//
// Usage:
//
//	lbpsweep [-insts N] [-quick] [-workers N] [-checkpoint file] [-timeout D] [-deadline D] [-list] [experiment ids...]
//
// Without arguments it runs every experiment (table1 … fig14b, ext*) in
// paper order; results for configurations shared between experiments are
// computed once, and workload runs within a configuration fan out across
// -workers goroutines (GOMAXPROCS by default; results are deterministic in
// the worker count). With -quick the reduced, category-balanced workload
// subset is used. Every flag value is checked before any run: a
// non-positive -insts or a negative -warmup, -workers, -audit-sample,
// -timeout or -deadline exits 2.
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
// Observability: experiment ext2 prints a CPI stack (cycle-accounting
// breakdown) for one representative workload per category under the
// paper's forward-coalesce; attribution is audited, so every cycle lands in
// exactly one bucket and the buckets sum to total cycles. -pprof DIR
// profiles the process: cpu.pprof and heap.pprof plus a runtime-metrics
// dump (runtime/metrics) land in DIR.
//
// Single runs — one workload or one saved trace file under one scheme, with
// or without the CPI stack or the event tracer — belong to lbpsim.
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
	"localbp/internal/service"
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
	pprofDir := flag.String("pprof", "", "write cpu.pprof, heap.pprof and a runtime-metrics dump to this directory")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *deadline < 0 {
		fmt.Fprintf(os.Stderr, "lbpsweep: -deadline: got %v, want >= 0\n", *deadline)
		return int(service.SweepConfigError)
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

	cfg := service.SweepConfig{
		Opts: harness.Options{Insts: *insts, Quick: *quick, Warmup: *warmup, Workers: *workers,
			AuditSample: *auditSample, RunTimeout: *timeout},
		IDs:        flag.Args(),
		Checkpoint: *checkpoint,
		Out:        os.Stdout,
		Errs:       os.Stderr,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	// Bad options, unknown ids and a mismatched checkpoint are all refused
	// here, before the banner: a configuration error leaves stdout empty.
	sweep, err := service.NewSweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbpsweep: %v\n", err)
		return int(service.SweepConfigError)
	}

	suite := "full suite (202 workloads)"
	if *quick {
		suite = "quick suite (50 workloads)"
	}
	fmt.Printf("lbpsweep: %s, %d instructions per workload\n\n", suite, *insts)

	rep, err := sweep.Run(ctx)
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
