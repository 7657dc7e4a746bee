package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"localbp"
	"localbp/internal/harness"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// The pinned runs simulate the workload, scheme and length of the
// BENCH_*.json files at the repository root.
const (
	pinnedWorkload = "cloud-compression"
	pinnedScheme   = "forward-coalesce" // localbp.ForwardWalk's registry name
)

// poolSize is how many dynamic streams a pinned run cycles through. One
// stream's misprediction rate, and with it the simulator's work per
// instruction, depends on its seed by up to ~10%; cycling through sixteen
// averages that out so runs with different seeds are comparable.
const poolSize = 16

// pinned is pinned-resident (in-memory trace) or pinned-stream (the same
// traces replayed from LBP2 files).
type pinned struct {
	o      *options
	stream bool

	traces  [][]trace.Inst
	files   []string
	dir     string
	ref     []localbp.Result
	genNs   int64 // generation time of the latest set-up
	next    int
	fileLen int64 // summed LBP2 file sizes
}

// streams returns the poolSize dynamic streams of the workload's program
// that one run replays. Stream i is drawn from the workload's own stream
// seed plus poolSize*seed + i, so seed 0 starts with the workload's own
// trace.
func (p *pinned) streams() [][]trace.Inst {
	w, _ := workloads.ByName(pinnedWorkload)
	prog := workloads.BuildProgram(w.Profile, w.Seed)
	base := w.Seed ^ workloadStreamSalt
	out := make([][]trace.Inst, poolSize)
	for i := range out {
		out[i] = trace.GenerateInto(nil, prog, p.o.pinnedInsts, base+p.o.seed*poolSize+int64(i))
	}
	return out
}

// workloadStreamSalt is what Workload.Generate mixes into the workload's
// seed to draw its dynamic stream.
const workloadStreamSalt = 0x5bd1e995

// setUp generates the streams, writes the LBP2 files (pinned-stream) and
// runs the in-memory reference simulation of each stream.
func (p *pinned) setUp() error {
	t0 := nanotime()
	trs := p.streams()
	p.genNs = nanotime() - t0
	if p.stream {
		if err := p.writeFiles(trs); err != nil {
			return err
		}
	}
	refs := make([]localbp.Result, len(trs))
	for i, tr := range trs {
		r, err := localbp.FromSource(trace.NewSliceSource(tr), localbp.ForwardWalk())
		if err != nil {
			return fmt.Errorf("reference run %d: %w", i, err)
		}
		refs[i] = r
	}
	if p.ref != nil {
		for i := range refs {
			if err := sameResult(refs[i], p.ref[i]); err != nil {
				return fmt.Errorf("set-up is not deterministic: stream %d: %w", i, err)
			}
		}
	}
	p.traces, p.ref = trs, refs
	return nil
}

func (p *pinned) writeFiles(trs [][]trace.Inst) error {
	if p.dir == "" {
		dir, err := os.MkdirTemp(p.o.scratch, "pinned-stream-")
		if err != nil {
			return err
		}
		p.dir = dir
	}
	p.files, p.fileLen = p.files[:0], 0
	for i, tr := range trs {
		path := filepath.Join(p.dir, fmt.Sprintf("stream-%d.lbp2", i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := trace.WriteTraceLBP2(f, tr); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		p.files = append(p.files, path)
		p.fileLen += st.Size()
	}
	return nil
}

// op simulates the next stream of the pool through the public facade.
func (p *pinned) op() (uint64, error) {
	i := p.next % len(p.traces)
	p.next++
	var res localbp.Result
	var err error
	if p.stream {
		var src localbp.Source
		src, err = localbp.OpenTrace(p.files[i])
		if err != nil {
			return 0, err
		}
		res, err = localbp.FromSource(src, localbp.ForwardWalk())
		if cerr := localbp.CloseTrace(src); err == nil {
			err = cerr
		}
	} else {
		res, err = localbp.FromSource(trace.NewSliceSource(p.traces[i]), localbp.ForwardWalk())
	}
	if err != nil {
		return 0, err
	}
	return res.Insts, sameResult(res, p.ref[i])
}

// sameResult compares the simulated statistics an op must reproduce.
func sameResult(got, want localbp.Result) error {
	if got.Cycles != want.Cycles || got.Insts != want.Insts || got.Mispredicts != want.Mispredicts {
		return fmt.Errorf("simulated %d cycles, %d insts, %d mispredicts; reference %d, %d, %d",
			got.Cycles, got.Insts, got.Mispredicts, want.Cycles, want.Insts, want.Mispredicts)
	}
	return nil
}

// paperErr runs one untimed quick sweep: the model's error against the
// paper does not depend on the workload, and every workload reports it
// beside its speed.
func (p *pinned) paperErr() (float64, error) {
	s := &sweep{o: p.o}
	if err := s.setUp(); err != nil {
		return 0, err
	}
	return s.paperErr()
}

func (p *pinned) close() error {
	if p.dir == "" {
		return nil
	}
	return os.RemoveAll(p.dir)
}

// sweep is quick-sweep: the table3 experiment on the quick suite through a
// fresh harness.Runner per op, so trace generation is paid inside the op.
type sweep struct {
	o     *options
	ref   string             // reference Table 3 text
	paper map[string]float64 // EXPERIMENTS.md "paper % of perfect" column
	errPP float64
}

func (s *sweep) workers() int { return runtime.NumCPU() }

func (s *sweep) runner() *harness.Runner {
	return harness.NewRunner(harness.Options{Insts: s.o.sweepInsts, Quick: true, Workers: s.workers()})
}

// table3 runs the table3 experiment on r and fails on any failed workload
// run.
func table3(r *harness.Runner) (string, error) {
	e, ok := harness.ExperimentByID("table3")
	if !ok {
		return "", fmt.Errorf("harness has no table3 experiment")
	}
	text, err := e.Run(context.Background(), r)
	if err != nil {
		return "", err
	}
	if f := r.Failures(); len(f) > 0 {
		return text, fmt.Errorf("%d workload runs failed; first: %v", len(f), f[0])
	}
	return text, nil
}

// sweepInsts is the instruction count one table3 op simulates.
func (s *sweep) sweepInsts() uint64 {
	return uint64(len(table3Specs()) * len(workloads.QuickSuite()) * s.o.sweepInsts)
}

// setUp reads the paper's column and runs the reference sweep.
func (s *sweep) setUp() error {
	md, err := os.ReadFile(filepath.Join(s.o.root, "EXPERIMENTS.md"))
	if err != nil {
		return err
	}
	if s.paper, err = parsePaperColumn(string(md)); err != nil {
		return err
	}
	text, err := table3(s.runner())
	if err != nil {
		return err
	}
	if s.ref != "" && text != s.ref {
		return fmt.Errorf("set-up is not deterministic: the Table 3 text changed between set-ups")
	}
	s.ref = text
	ours, err := parseTable3(text)
	if err != nil {
		return err
	}
	s.errPP = paperError(ours, s.paper)
	return nil
}

// op runs one sweep; its text must equal the reference byte for byte.
func (s *sweep) op() (uint64, error) {
	text, err := table3(s.runner())
	if text == "" {
		return 0, err
	}
	if err == nil && text != s.ref {
		err = fmt.Errorf("the Table 3 text differs from the reference")
	}
	return s.sweepInsts(), err
}

func (s *sweep) paperErr() (float64, error) { return s.errPP, nil }

func (s *sweep) close() error { return nil }
