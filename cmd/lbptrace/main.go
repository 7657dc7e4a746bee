// Command lbptrace generates, saves, converts, inspects and characterizes
// workload traces — both the synthetic evaluation suite and external trace
// files (LBP2, ChampSim).
//
// Usage:
//
//	lbptrace -list                            # list suite + stressor workloads
//	lbptrace -workload NAME [-insts N]        # summarize a workload
//	lbptrace -workload NAME -sites            # print its branch-site inventory
//	lbptrace -gen -workload NAME -out F       # save the trace as LBP2
//	lbptrace -stat trace.lbp2                 # summarize a saved trace file
//	lbptrace -convert in.champsim -out F      # re-encode a trace file as LBP2
//
// -workload and -seed spell the same as in lbpsim, -insts the same as in
// lbpsim and lbpsweep, and `-workload NAME -out F` still saves without
// -gen. A saved trace replays under any configuration name with
// `lbpsim -trace-file F -scheme NAME`.
//
// -stat and -convert stream: the input is decoded chunk-at-a-time, so
// arbitrarily long traces are handled at fixed memory. For LBP2 inputs -stat
// also prints the container layout (chunks, index, bytes per instruction).
//
// Exit codes follow lbpsim: a configuration error (an unknown workload, an
// input that does not open as a trace, -gen or -convert without -out, a
// non-positive -insts) exits 2 before any output; a trace that fails to
// decode mid-stream, or a failed write, exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"localbp/internal/service"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

func main() {
	list := flag.Bool("list", false, "list all suite and stressor workloads")
	name := flag.String("workload", "", "workload to generate")
	insts := flag.Int("insts", 300_000, "instructions to generate")
	seed := flag.Int64("seed", 0, "override the workload's trace-generation seed (0 = workload default)")
	sites := flag.Bool("sites", false, "print the branch-site inventory")
	gen := flag.Bool("gen", false, "generate -workload and write it to -out")
	out := flag.String("out", "", "write the trace to this file as LBP2")
	stat := flag.String("stat", "", "summarize a saved trace file (lbp2 or champsim)")
	convert := flag.String("convert", "", "re-encode this trace file to -out as LBP2")
	flag.Parse()

	switch {
	case *list:
		fmt.Printf("%-26s %-9s loops conds\n", "name", "category")
		for _, w := range workloads.Suite() {
			fmt.Printf("%-26s %-9s %5d %5d\n", w.Name, w.Category, w.Profile.LoopSites, w.Profile.CondSites)
		}
		fmt.Printf("\nstressors (predictor torture ladders, not in Table-1 aggregates):\n")
		for _, w := range workloads.StressSuite() {
			fmt.Printf("%-26s %-9s param %d\n", w.Name, w.Category, w.Stress.Param)
		}

	case *stat != "":
		src := openTrace(*stat)
		defer trace.CloseSource(src)
		if err := statFile(*stat, src); err != nil {
			fatal(err)
		}

	case *convert != "":
		if *out == "" {
			configError(errors.New("-convert requires -out"))
		}
		src := openTrace(*convert)
		defer trace.CloseSource(src)
		if err := convertFile(src, *out); err != nil {
			fatal(err)
		}

	case *name != "":
		w, ok := workloads.ByName(*name)
		if !ok {
			configError(fmt.Errorf("unknown workload %q (see -list)", *name))
		}
		if *seed != 0 {
			w.Seed = *seed
		}
		if *sites {
			_, inventory := workloads.BuildProgramInfo(w.Profile, w.Seed)
			fmt.Printf("%d branch sites:\n", len(inventory))
			for _, si := range inventory {
				fmt.Printf("  %#08x %-14s %s\n", si.PC, si.Kind, si.Detail)
			}
			return
		}
		if *gen && *out == "" {
			configError(errors.New("-gen requires -out"))
		}
		if *insts <= 0 {
			configError(fmt.Errorf("-insts: got %d, want > 0", *insts))
		}
		tr := w.Generate(*insts)
		fmt.Printf("%s (%s): %s\n", w.Name, w.Category, trace.Summarize(tr))
		if *out != "" {
			if err := service.AtomicWriteFile(*out, func(f io.Writer) error {
				return trace.WriteTraceLBP2(f, tr)
			}); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (lbp2)\n", *out)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// openTrace opens a -stat or -convert input. A file that cannot be opened
// or is not a trace is a configuration error, as for lbpsim -trace-file.
func openTrace(path string) trace.Source {
	src, err := trace.OpenSource(path)
	if err != nil {
		configError(err)
	}
	return src
}

// statFile prints the aggregate statistics of the trace file at path,
// decoding src chunk-at-a-time; LBP2 containers also get a layout line, and
// ChampSim files their size.
func statFile(path string, src trace.Source) error {
	st, err := trace.SummarizeSource(src)
	if err != nil {
		return err
	}
	fmt.Println(st)

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if st2, err := trace.StatLBP2(f, fi.Size()); err == nil {
		fmt.Println(st2)
	} else {
		fmt.Printf("container: champsim, %d bytes (%.2f B/inst)\n",
			fi.Size(), float64(fi.Size())/float64(max(1, st.Insts)))
	}
	return nil
}

// convertFile re-encodes src as LBP2 at out, streaming through the chunked
// writer at fixed memory; the atomic write means an interrupted conversion
// never leaves a torn file behind.
func convertFile(src trace.Source, out string) error {
	var total int
	err := service.AtomicWriteFile(out, func(f io.Writer) error {
		lw, err := trace.NewLBP2Writer(f, 0)
		if err != nil {
			return err
		}
		var chunk [4096]trace.Inst
		for {
			n, err := src.Next(chunk[:])
			if n > 0 {
				if werr := lw.Append(chunk[:n]); werr != nil {
					return werr
				}
				total += n
			}
			if err == io.EOF {
				return lw.Close()
			}
			if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (lbp2, %d insts)\n", out, total)
	return nil
}

// fatal reports a failure of well-formed work, such as a decode error
// mid-stream or a failed write, and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbptrace:", err)
	os.Exit(service.ExitFailure)
}

// configError reports an invocation that cannot start and exits 2 before
// any output, with lbpsim's exit code for the same errors.
func configError(err error) {
	fmt.Fprintln(os.Stderr, "lbptrace:", err)
	os.Exit(service.ExitConfigError)
}
