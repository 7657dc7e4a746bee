// Command lbpsim simulates one workload under one configuration and prints
// detailed statistics: IPC, MPKI, override accuracy, repair activity, cache
// behaviour — plus, on request, the run's CPI stack, the full counter
// registry, and a structured event trace.
//
// Usage:
//
//	lbpsim [-insts N] [-workload name | -trace-file file] [-scheme name] [-seed N]
//	       [-maxcycles N] [-stall N] [-audit] [-oracle]
//	       [-cpistack] [-counters] [-trace-events file] [-trace-chrome file]
//
// -scheme takes a configuration name, parsed by harness.SpecFor: any row
// label the experiments run (forward-64-8-4, limited-4pc-invalidate,
// perfect-CBPw-Loop64, tage57-forward-32-4-2-coalesce, yehpatt-perfect), or
// one with the paper's defaults left off (forward-coalesce). The name
// carries the TAGE size and the loop predictor size. An unknown name exits
// 2 and lists the grammar.
//
// -maxcycles and -stall bound the run in simulated cycles (the core's
// watchdog): a run that exceeds its cycle budget or stops retiring exits 1
// with a pipeline dump. -audit enables the integrity auditor (read-only
// invariant checks; the first violation aborts with a structured report).
// -oracle cross-checks every retirement against a timing-free in-order
// execution of the trace (the golden-model differential oracle; distinct
// from `-scheme oracle-local`, the never-mispredicting local predictor).
//
// -trace-file replays a saved trace (lbp2 or champsim; see lbptrace
// -convert) through the streaming ingestion path at fixed memory instead of
// generating -workload; -insts, when given explicitly, truncates the replay.
//
// -cpistack attributes every core cycle to one CPI-stack bucket and prints
// the breakdown (the attribution is audited: buckets must sum to total
// cycles). -counters prints the full counter-registry snapshot.
// -trace-events writes the retained trace events as JSONL; -trace-chrome
// writes them in Chrome trace_event format (load in chrome://tracing or
// Perfetto). -trace-cap bounds the retained-event ring.
//
// A non-positive -insts or -trace-cap exits 2 before any run. SIGINT or
// SIGTERM cancels the run and exits 4.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"localbp/internal/harness"
	"localbp/internal/obs"
	"localbp/internal/service"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

func main() {
	insts := flag.Int("insts", 500_000, "instructions to simulate")
	name := flag.String("workload", "cloud-compression", "workload name (see lbptrace -list)")
	schemeName := flag.String("scheme", "forward", "configuration name, e.g. forward-32-4-2-coalesce or tage57-perfect (see harness.SpecFor)")
	seed := flag.Int64("seed", 0, "override the workload's trace-generation seed (0 = workload default)")
	maxCycles := flag.Int64("maxcycles", 0, "abort if the run exceeds this many cycles (0 = automatic budget)")
	stallCycles := flag.Int64("stall", 0, "abort if no instruction retires for this many cycles (0 = default deadman)")
	auditOn := flag.Bool("audit", false, "enable the integrity auditor (read-only invariant checks)")
	oracleOn := flag.Bool("oracle", false, "cross-check retirement against the golden in-order model")
	cpistack := flag.Bool("cpistack", false, "attribute every cycle to a CPI-stack bucket and print the breakdown")
	counters := flag.Bool("counters", false, "print the counter-registry snapshot")
	traceEvents := flag.String("trace-events", "", "write retained trace events as JSONL to this file")
	traceChrome := flag.String("trace-chrome", "", "write retained trace events in Chrome trace_event format to this file")
	traceCap := flag.Int("trace-cap", 65536, "event-tracer ring capacity (retained events)")
	traceFile := flag.String("trace-file", "", "replay a saved trace file (lbp2 or champsim) instead of generating -workload")
	flag.Parse()
	// Out-of-range numbers exit 2 before any run: trace.Limit reads a
	// non-positive -insts as "no limit" (a whole -trace-file replay).
	reject := func(name string, got any, want string) {
		fmt.Fprintf(os.Stderr, "lbpsim: -%s: got %v, want %s\n", name, got, want)
		os.Exit(service.ExitConfigError)
	}
	switch {
	case *insts <= 0:
		reject("insts", *insts, "> 0")
	case *traceCap <= 0:
		reject("trace-cap", *traceCap, "> 0")
	}
	instsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "insts" {
			instsSet = true
		}
	})

	var (
		w     workloads.Workload
		label string // the workload label of the trace-event output
	)
	if *traceFile != "" {
		// File replay: the stream IS the workload; -seed has nothing to
		// perturb and -oracle needs the whole trace resident.
		if *seed != 0 {
			fmt.Fprintln(os.Stderr, "lbpsim: -seed does not apply to -trace-file replay")
			os.Exit(service.ExitConfigError)
		}
		if *oracleOn {
			fmt.Fprintln(os.Stderr, "lbpsim: -oracle requires an in-process generated trace, not -trace-file")
			os.Exit(service.ExitConfigError)
		}
		label = filepath.Base(*traceFile)
	} else {
		var ok bool
		w, ok = workloads.ByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "lbpsim: unknown workload %q\n", *name)
			os.Exit(service.ExitConfigError)
		}
		label = w.Name
	}

	// The experiments' one name parser: -scheme names any row they run.
	spec, err := harness.SpecFor(*schemeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbpsim: -scheme: %v\n", err)
		os.Exit(service.ExitConfigError)
	}
	spec.Core.MaxCycles = *maxCycles
	spec.Core.StallCycles = *stallCycles
	spec.Audit = *auditOn
	spec.Golden = *oracleOn

	// Observability. The counter snapshot is taken inside Done, the last
	// point at which the registry's "mem" source may be read.
	var (
		cpi    *obs.CPIStack
		reg    *obs.Registry
		snap   map[string]uint64
		tracer *obs.Tracer
	)
	if *cpistack || *counters || *traceEvents != "" || *traceChrome != "" {
		spec.Obs = &harness.ObsSpec{CPIStack: *cpistack, Counters: *counters}
		if *traceEvents != "" || *traceChrome != "" {
			spec.Obs.TraceCap = *traceCap
		}
		spec.Obs.Done = func(h *obs.Hooks) {
			cpi, reg, tracer = h.CPI, h.Reg, h.Tracer
			if reg != nil {
				snap = reg.Snapshot()
			}
		}
	}

	// Fail fast on malformed configurations with field-level errors before
	// any simulation state is built.
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "lbpsim: invalid configuration:\n%v\n", err)
		os.Exit(service.ExitConfigError)
	}

	var src trace.Source
	if *traceFile != "" {
		file, err := trace.OpenSource(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbpsim: %v\n", err)
			os.Exit(service.ExitConfigError)
		}
		defer trace.CloseSource(file)
		src = file
		// -insts limits the replay only when given explicitly; the default
		// is the whole file.
		if instsSet {
			src = trace.Limit(file, *insts)
		}
		fmt.Printf("trace file: %s, %d instructions\n", *traceFile, src.Len())
	} else {
		fmt.Printf("workload: %s (%s), %d instructions\n", w.Name, w.Category, *insts)
		if *seed != 0 {
			w.Seed = *seed
		}
		tr := w.Generate(*insts)
		if err := trace.Validate(tr); err != nil {
			fmt.Fprintf(os.Stderr, "lbpsim: generated trace invalid:\n%v\n", err)
			os.Exit(service.ExitConfigError)
		}
		src = trace.NewSliceSource(tr)
	}
	// SIGINT/SIGTERM cancel the run context; the cycle loop observes it
	// within one check stride.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := harness.Run(ctx, src, spec)
	if err != nil {
		// Shared exit taxonomy (service.ExitCodeForError): a signal's
		// cancellation exits 4, everything else 1.
		fmt.Fprintf(os.Stderr, "lbpsim: %v\n", err)
		os.Exit(service.ExitCodeForError(err))
	}

	st := res.Stats
	fmt.Printf("\ncore:\n")
	fmt.Printf("  cycles        %12d\n", st.Cycles)
	fmt.Printf("  IPC           %12.3f\n", st.IPC())
	fmt.Printf("  MPKI          %12.3f  (TAGE-only view: %.3f)\n", st.MPKI(), st.TageMPKI())
	fmt.Printf("  branches      %12d  (%d mispredicted, %d flushes)\n", st.Branches, st.Mispredicts, st.Flushes)
	fmt.Printf("  wrong-path    %12d instructions synthesized\n", st.WrongPathInsts)

	if rst := res.Repair; rst != nil {
		fmt.Printf("\nlocal predictor (%s):\n", res.Scheme)
		fmt.Printf("  overrides     %12d  (%d correct on the retired path)\n", res.Overrides, res.OverridesOK)
		fmt.Printf("  repairs       %12d  (%d unrepaired, %d restarts)\n", rst.Repairs, rst.Unrepaired, rst.Restarts)
		fmt.Printf("  repair writes %12d  (%d checkpoint reads)\n", rst.RepairWrites, rst.RepairReads)
		fmt.Printf("  BHT busy      %12d cycles, %d checkpoint misses\n", rst.BusyCycles, rst.CkptMisses)
		if rst.EarlyResteers > 0 {
			fmt.Printf("  early resteers%12d\n", rst.EarlyResteers)
		}
		fmt.Printf("  storage       %12.2f KB (local predictor + repair)\n", float64(res.StorageBits)/8192)
	}

	m := res.Mem
	fmt.Printf("\nmemory:\n  accesses %d, L1 miss %.1f%%, L2 miss %.1f%%, LLC miss %.1f%%\n",
		m.Accesses, pct(m.L1Misses, m.Accesses), pct(m.L2Misses, m.L1Misses), pct(m.LLCMisses, m.L2Misses))

	if cpi != nil {
		fmt.Printf("\nCPI stack (every cycle attributed; audited):\n%s", cpi)
	}
	if reg != nil {
		fmt.Printf("\ncounters:\n%s", obs.FormatSnapshot(snap))
		for _, h := range reg.Histograms() {
			fmt.Printf("\n%s\n", h)
		}
	}
	if tracer != nil {
		labels := map[string]string{
			"workload": label,
			"scheme":   spec.Label,
			"insts":    fmt.Sprint(src.Len()),
		}
		if err := writeTrace(*traceEvents, func(f io.Writer) error {
			return tracer.WriteJSONL(f, labels)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "lbpsim: %v\n", err)
			os.Exit(service.ExitFailure)
		}
		if err := writeTrace(*traceChrome, tracer.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "lbpsim: %v\n", err)
			os.Exit(service.ExitFailure)
		}
		fmt.Printf("\ntrace: %d events emitted, %d retained\n", tracer.Total(), len(tracer.Events()))
	}

	if *auditOn {
		fmt.Printf("\nintegrity: %d checks, 0 violations", res.AuditChecks)
		if *oracleOn {
			fmt.Printf(", golden model verified %d retirements", st.Insts)
		}
		fmt.Println()
	}
}

// writeTrace writes one trace artifact; an empty path is a no-op.
func writeTrace(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
