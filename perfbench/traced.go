package main

// The traced run splits host time across the simulator's modules from the
// outside: timing decorators around the repair scheme and the trace source
// measure those layers inside real simulations, and standalone replays of
// each trace through the TAGE predictor, the whole prediction unit and the
// memory hierarchy estimate the layers the core calls directly. The core's
// own time is what the traced simulation took beyond all of them.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"localbp"
	"localbp/internal/bpu"
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/core"
	"localbp/internal/harness"
	"localbp/internal/mem"
	"localbp/internal/obs"
	"localbp/internal/repair"
	"localbp/internal/schemes"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

var epoch = time.Now()

// nanotime reads the monotonic clock.
func nanotime() int64 { return int64(time.Since(epoch)) }

// clockCost is the median time between two back-to-back clock reads; every
// timed interval subtracts it.
var clockCost = func() int64 {
	d := make([]float64, 4001)
	for i := range d {
		t0 := nanotime()
		d[i] = float64(nanotime() - t0)
	}
	return int64(median(d))
}()

// sampleEvery: a hook clock times one call in sampleEvery and scales up, so
// that the clock reads add little to the traced simulation.
const sampleEvery = 4

// hookClock times calls into one hook.
type hookClock struct {
	calls, sampled uint64
	ns             int64
}

// begin counts a call and returns its start time, or -1 when the call is
// not sampled.
func (h *hookClock) begin() int64 {
	h.calls++
	if h.calls%sampleEvery != 0 {
		return -1
	}
	return nanotime()
}

func (h *hookClock) end(t0 int64) {
	if t0 >= 0 {
		h.sampled++
		h.ns += nanotime() - t0 - clockCost
	}
}

func (h *hookClock) add(o hookClock) {
	h.calls += o.calls
	h.sampled += o.sampled
	h.ns += o.ns
}

// total estimates the time spent in all calls.
func (h hookClock) total() float64 {
	return max(0, ratio(float64(h.ns), float64(h.sampled))) * float64(h.calls)
}

// repairClocks holds one clock per repair.Scheme hook.
type repairClocks struct {
	predict, fetch, alloc, mispredict, resolve, retire, squash hookClock
}

func (c *repairClocks) add(o repairClocks) {
	c.predict.add(o.predict)
	c.fetch.add(o.fetch)
	c.alloc.add(o.alloc)
	c.mispredict.add(o.mispredict)
	c.resolve.add(o.resolve)
	c.retire.add(o.retire)
	c.squash.add(o.squash)
}

func (c *repairClocks) totalNs() float64 {
	return c.predict.total() + c.fetch.total() + c.alloc.total() + c.mispredict.total() +
		c.resolve.total() + c.retire.total() + c.squash.total()
}

func (c *repairClocks) calls() uint64 {
	return c.predict.calls + c.fetch.calls + c.alloc.calls + c.mispredict.calls +
		c.resolve.calls + c.retire.calls + c.squash.calls
}

// timedScheme decorates a repair.Scheme with hook clocks. It forwards the
// optional interfaces the core and the unit type-assert (BusyUntil,
// Predictor, AttachObs), as audit.WrapScheme does, so a timed simulation is
// bit-identical to an untimed one.
type timedScheme struct {
	inner repair.Scheme
	clk   repairClocks
}

func (s *timedScheme) Name() string { return s.inner.Name() }

func (s *timedScheme) FetchPredict(pc uint64, cycle int64) loop.Prediction {
	t := s.clk.predict.begin()
	p := s.inner.FetchPredict(pc, cycle)
	s.clk.predict.end(t)
	return p
}

func (s *timedScheme) OnFetchBranch(ctx *repair.BranchCtx, cycle int64) {
	t := s.clk.fetch.begin()
	s.inner.OnFetchBranch(ctx, cycle)
	s.clk.fetch.end(t)
}

func (s *timedScheme) AllocCheck(ctx *repair.BranchCtx, cycle int64) (bool, bool) {
	t := s.clk.alloc.begin()
	r, d := s.inner.AllocCheck(ctx, cycle)
	s.clk.alloc.end(t)
	return r, d
}

func (s *timedScheme) OnMispredict(ctx *repair.BranchCtx, cycle int64) {
	t := s.clk.mispredict.begin()
	s.inner.OnMispredict(ctx, cycle)
	s.clk.mispredict.end(t)
}

func (s *timedScheme) OnCorrectResolve(ctx *repair.BranchCtx, cycle int64) {
	t := s.clk.resolve.begin()
	s.inner.OnCorrectResolve(ctx, cycle)
	s.clk.resolve.end(t)
}

func (s *timedScheme) OnRetire(ctx *repair.BranchCtx, finalMisp bool) {
	t := s.clk.retire.begin()
	s.inner.OnRetire(ctx, finalMisp)
	s.clk.retire.end(t)
}

func (s *timedScheme) OnSquash(ctx *repair.BranchCtx) {
	t := s.clk.squash.begin()
	s.inner.OnSquash(ctx)
	s.clk.squash.end(t)
}

func (s *timedScheme) Stats() *repair.Stats { return s.inner.Stats() }
func (s *timedScheme) StorageBits() int     { return s.inner.StorageBits() }

// Predictor forwards the wrapped scheme's local predictor (nil when it has
// none), which the unit's oracle reads.
func (s *timedScheme) Predictor() loop.LocalPredictor {
	if ph, ok := s.inner.(interface{ Predictor() loop.LocalPredictor }); ok {
		return ph.Predictor()
	}
	return nil
}

// BusyUntil forwards the wrapped scheme's busy window (CPI attribution).
func (s *timedScheme) BusyUntil() int64 {
	if br, ok := s.inner.(repair.BusyReporter); ok {
		return br.BusyUntil()
	}
	return 0
}

// AttachObs forwards observability registration: the harness registers the
// scheme its SchemeMaker returns, which here is the decorator.
func (s *timedScheme) AttachObs(reg *obs.Registry, tr *obs.Tracer) {
	repair.AttachObs(s.inner, reg, tr)
}

// timedSource times every Next call of a trace source. It does not expose
// Slice, so the core takes the streaming path exactly as for the bare
// source.
type timedSource struct {
	trace.Source
	calls int
	ns    int64
}

func (s *timedSource) Next(dst []trace.Inst) (int, error) {
	t0 := nanotime()
	n, err := s.Source.Next(dst)
	s.ns += nanotime() - t0 - clockCost
	s.calls++
	return n, err
}

// directRun is one or more simulations built from the public constructors
// (schemes.Build, bpu.NewUnit, core.NewStream) under the pinned scheme,
// with the core's own counters that the facade does not return.
type directRun struct {
	runs                 int
	wallNs               int64
	st                   core.Stats // summed over runs
	rst                  repair.Stats
	acc, l1m, llcm       uint64
	memoHits, memoMisses int64
	clk                  repairClocks
	nextCalls            int
	decodeNs             int64
}

func (d *directRun) add(o directRun) {
	d.runs += o.runs
	d.wallNs += o.wallNs
	d.st.Cycles += o.st.Cycles
	d.st.Insts += o.st.Insts
	d.st.Branches += o.st.Branches
	d.st.Mispredicts += o.st.Mispredicts
	d.st.WrongPathInsts += o.st.WrongPathInsts
	d.rst.Repairs += o.rst.Repairs
	d.rst.RepairReads += o.rst.RepairReads
	d.rst.BusyCycles += o.rst.BusyCycles
	d.rst.CkptMisses += o.rst.CkptMisses
	d.acc += o.acc
	d.l1m += o.l1m
	d.llcm += o.llcm
	d.memoHits += o.memoHits
	d.memoMisses += o.memoMisses
	d.clk.add(o.clk)
	d.nextCalls += o.nextCalls
	d.decodeNs += o.decodeNs
}

// simulate runs src once; timed decorates the scheme and the source.
func simulate(src trace.Source, timed bool) (directRun, error) {
	scheme, def, err := schemes.Build(pinnedScheme)
	if err != nil {
		return directRun{}, err
	}
	var ts *timedScheme
	var tsrc *timedSource
	if timed {
		ts = &timedScheme{inner: scheme}
		scheme = ts
		if _, resident := trace.SourceSlice(src); !resident {
			tsrc = &timedSource{Source: src}
			src = tsrc
		}
	}
	t0 := nanotime()
	unit := bpu.NewUnit(tage.KB8(), scheme)
	unit.Oracle = def.Oracle
	c, err := core.NewStream(core.DefaultConfig(), unit, src)
	if err != nil {
		return directRun{}, err
	}
	st, err := c.RunContext(context.Background())
	wall := nanotime() - t0
	if err != nil {
		return directRun{}, err
	}
	d := directRun{runs: 1, wallNs: wall, st: st, rst: *scheme.Stats()}
	d.acc, d.l1m, _, d.llcm = c.Mem().Stats()
	d.memoHits, d.memoMisses, _, _ = c.BlockMemoCounters()
	c.Recycle()
	if ts != nil {
		d.clk = ts.clk
	}
	if tsrc != nil {
		d.nextCalls, d.decodeNs = tsrc.calls, tsrc.ns
	}
	return d, nil
}

// sameRun reports whether a timed simulation reproduced the untimed one.
func sameRun(timed, plain directRun) error {
	if timed.st != plain.st {
		return fmt.Errorf("traced core stats %+v differ from untraced %+v", timed.st, plain.st)
	}
	if timed.rst != plain.rst {
		return fmt.Errorf("traced repair stats %+v differ from untraced %+v", timed.rst, plain.rst)
	}
	return nil
}

// replays holds the standalone layer replays over a workload's traces.
type replays struct {
	tagePredictNs, tageUpdateNs, tagePerBranch float64
	tageBranches, tageMisp                     uint64
	bpuPerBranch                               float64
	memAccessNs                                float64
}

const replayReps = 5

// replay runs each layer replay replayReps times over trs and keeps the
// median time.
func replay(trs [][]trace.Inst) (replays, error) {
	var full, pred, bpuNs, memNs []float64
	var r replays
	for range replayReps {
		f, p, br, misp := replayTAGE(trs)
		full, pred = append(full, ratio(f, float64(br))), append(pred, ratio(p, float64(br)))
		r.tageBranches, r.tageMisp = br, misp
		b, err := replayBPU(trs)
		if err != nil {
			return r, err
		}
		bpuNs = append(bpuNs, ratio(b, float64(br)))
		m, acc := replayMem(trs)
		memNs = append(memNs, ratio(m, float64(acc)))
	}
	r.tagePerBranch = median(full)
	r.tagePredictNs = median(pred)
	r.tageUpdateNs = max(0, r.tagePerBranch-r.tagePredictNs)
	r.bpuPerBranch = median(bpuNs)
	r.memAccessNs = median(memNs)
	return r, nil
}

// replayTAGE replays the correct-path conditional branches through a fresh
// TAGE per trace: one pass of Predict, SpecUpdateHistory and Update, then a
// second pass over the trained tables of Predict and SpecUpdateHistory
// alone. Update's cost is the difference.
func replayTAGE(trs [][]trace.Inst) (fullNs, predictNs float64, branches, misp uint64) {
	for _, tr := range trs {
		p := tage.New(tage.KB8())
		var meta tage.Meta
		p.PrimeMetas([]*tage.Meta{&meta})
		t0 := nanotime()
		for i := range tr {
			in := &tr[i]
			if !in.IsBranch() {
				continue
			}
			pred := p.Predict(in.PC, &meta)
			p.SpecUpdateHistory(in.PC, in.Taken)
			p.Update(&meta, in.Taken, pred != in.Taken)
			branches++
			if pred != in.Taken {
				misp++
			}
		}
		t1 := nanotime()
		for i := range tr {
			in := &tr[i]
			if in.IsBranch() {
				p.Predict(in.PC, &meta)
				p.SpecUpdateHistory(in.PC, in.Taken)
			}
		}
		fullNs += float64(t1 - t0)
		predictNs += float64(nanotime() - t1)
	}
	return fullNs, predictNs, branches, misp
}

// replayBPU drives the whole unit under the pinned scheme in program order:
// GetRec, Predict, Resolve and Retire per correct-path branch.
func replayBPU(trs [][]trace.Inst) (float64, error) {
	var ns float64
	for _, tr := range trs {
		scheme, def, err := schemes.Build(pinnedScheme)
		if err != nil {
			return 0, err
		}
		u := bpu.NewUnit(tage.KB8(), scheme)
		u.Oracle = def.Oracle
		u.Prealloc(1)
		var seq uint64
		t0 := nanotime()
		for i := range tr {
			in := &tr[i]
			if !in.IsBranch() {
				continue
			}
			rec := u.GetRec()
			u.Predict(rec, in.PC, in.Taken, seq, false, int64(i))
			u.Resolve(rec, int64(i))
			u.Retire(rec)
			seq++
		}
		ns += float64(nanotime() - t0)
	}
	return ns, nil
}

// replayMem replays the load and store addresses through a fresh default
// hierarchy per trace.
func replayMem(trs [][]trace.Inst) (ns float64, accesses uint64) {
	for _, tr := range trs {
		h := mem.New(mem.DefaultHierarchy())
		t0 := nanotime()
		for i := range tr {
			if tr[i].IsMem() {
				h.AccessAt(tr[i].Addr, int64(i))
				accesses++
			}
		}
		ns += float64(nanotime() - t0)
		h.Recycle()
	}
	return ns, accesses
}

// layerInputs is what a workload's traced run measured.
type layerInputs struct {
	plain, timed   directRun // untraced and traced direct simulations
	plainNs        []float64 // untraced ns/inst per op
	tracedNs       []float64 // traced ns/inst per op
	rep            replays
	fileBytes      float64 // LBP2 bytes per instruction (streamed only)
	generateNsInst float64
	// repair clocks and stats of the workload's own traced ops; for the
	// sweep they cover every scheme, for the pinned runs they are timed's.
	repClk   repairClocks
	repStats repair.Stats
	repInsts float64
	repOps   int
	cpuUtil  float64
	runs     float64 // harness workload runs per traced op
	failed   float64 // failed harness workload runs per traced op
}

// layers turns the measurements into the per-layer metrics.
func layers(in layerInputs) map[string]metric {
	l := layerSet{}
	t := in.timed
	insts := float64(t.st.Insts)
	ops := float64(max(1, t.runs))

	l.set("trace.decode_ns_per_inst", ratio(float64(t.decodeNs), insts))
	l.set("trace.next_calls", float64(t.nextCalls)/ops)
	l.set("trace.file_bytes_per_inst", in.fileBytes)
	l.set("trace.generate_ns_per_inst", in.generateNsInst)

	c, rst := in.repClk, in.repStats
	repOps := float64(max(1, in.repOps))
	l.set("repair.fetch_ns_per_branch", ratio(c.predict.total()+c.fetch.total(), float64(c.fetch.calls)))
	l.set("repair.resolve_ns_per_branch", ratio(c.resolve.total()+c.mispredict.total(),
		float64(c.resolve.calls+c.mispredict.calls)))
	l.set("repair.mispredict_ns_per_call", ratio(c.mispredict.total(), float64(c.mispredict.calls)))
	l.set("repair.retire_ns_per_branch", ratio(c.retire.total(), float64(c.retire.calls)))
	l.set("repair.self_ns_per_inst", ratio(c.totalNs(), in.repInsts))
	l.set("repair.calls", float64(c.calls())/repOps)
	l.set("repair.repairs", float64(rst.Repairs)/repOps)
	l.set("repair.reads_per_repair", ratio(float64(rst.RepairReads), float64(rst.Repairs)))
	l.set("repair.busy_cycles_per_kinst", 1000*ratio(float64(rst.BusyCycles), in.repInsts))
	l.set("repair.ckpt_miss_ratio", ratio(float64(rst.CkptMisses), float64(c.fetch.calls)))

	r := in.rep
	l.set("tage.predict_ns", r.tagePredictNs)
	l.set("tage.update_ns", r.tageUpdateNs)
	l.set("tage.ns_per_branch", r.tagePerBranch)
	l.set("tage.branches", float64(r.tageBranches))
	l.set("tage.mispredict_ratio", ratio(float64(r.tageMisp), float64(r.tageBranches)))
	l.set("bpu.replay_ns_per_branch", r.bpuPerBranch)

	accPerInst := ratio(float64(t.acc), insts)
	memSelf := r.memAccessNs * accPerInst
	l.set("mem.access_ns", r.memAccessNs)
	l.set("mem.accesses_per_inst", accPerInst)
	l.set("mem.self_ns_per_inst", memSelf)
	l.set("mem.l1_miss_ratio", ratio(float64(t.l1m), float64(t.acc)))
	l.set("mem.llc_miss_ratio", ratio(float64(t.llcm), float64(t.acc)))

	// TAGE predicts every fetched branch (the scheme's OnFetchBranch calls)
	// and updates every retired one.
	tageSelf := r.tagePredictNs*ratio(float64(t.clk.fetch.calls), insts) +
		r.tageUpdateNs*ratio(float64(t.st.Branches), insts)
	self := ratio(t.clk.totalNs(), insts) + tageSelf + memSelf + ratio(float64(t.decodeNs), insts)
	l.set("core.residual_ns_per_inst", ratio(float64(t.wallNs), insts)-self)
	p := in.plain
	l.set("core.host_ns_per_cycle", ratio(float64(p.wallNs), float64(p.st.Cycles)))
	l.set("core.cycles_per_inst", ratio(float64(p.st.Cycles), float64(p.st.Insts)))
	l.set("core.wrong_path_ratio", ratio(float64(p.st.WrongPathInsts), float64(p.st.Insts)))
	l.set("core.blockmemo_hit_ratio", ratio(float64(p.memoHits), float64(p.memoHits+p.memoMisses)))

	l.set("harness.cpu_utilization", in.cpuUtil)
	l.set("harness.runs", in.runs)
	l.set("harness.failed_runs", in.failed)
	l.set("traced.overhead_ratio", ratio(median(in.tracedNs), median(in.plainNs)))
	return l
}

// traced alternates untraced and traced simulations of the pool's streams
// for the given time, then replays the streams through each layer.
func (p *pinned) traced(seconds float64) (map[string]metric, int, int, error) {
	var in layerInputs
	attempted, failed := 0, 0
	var cpuNs, wallNs int64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		k := i % len(p.traces)
		c0, t0 := cpuClock(clockProcessCPU), nanotime()
		plain, err := p.simulate(k, false)
		wallNs += nanotime() - t0
		cpuNs += cpuClock(clockProcessCPU) - c0
		if err != nil {
			return nil, 0, 0, err
		}
		timed, err := p.simulate(k, true)
		if err != nil {
			return nil, 0, 0, err
		}
		attempted += 2
		got := localbp.Result{Cycles: plain.st.Cycles, Insts: plain.st.Insts, Mispredicts: plain.st.Mispredicts}
		if err := sameResult(got, p.ref[k]); err != nil {
			failed++
			fmt.Fprintf(p.o.out, "stream %d: untraced run: %v\n", k, err)
		}
		if err := sameRun(timed, plain); err != nil {
			failed++
			fmt.Fprintf(p.o.out, "stream %d: %v\n", k, err)
		}
		in.plain.add(plain)
		in.timed.add(timed)
		in.plainNs = append(in.plainNs, ratio(float64(plain.wallNs), float64(plain.st.Insts)))
		in.tracedNs = append(in.tracedNs, ratio(float64(timed.wallNs), float64(timed.st.Insts)))
	}
	rep, err := replay(p.traces)
	if err != nil {
		return nil, 0, 0, err
	}
	in.rep = rep
	total := 0
	for _, tr := range p.traces {
		total += len(tr)
	}
	if p.stream {
		in.fileBytes = ratio(float64(p.fileLen), float64(total))
	}
	in.generateNsInst = ratio(float64(p.genNs), float64(total))
	in.repClk, in.repStats = in.timed.clk, in.timed.rst
	in.repInsts, in.repOps = float64(in.timed.st.Insts), in.timed.runs
	in.cpuUtil = ratio(float64(cpuNs), float64(wallNs))
	fmt.Fprintf(p.o.out, "%s traced: %d untraced and %d traced simulations\n",
		p.o.workload, in.plain.runs, in.timed.runs)
	return layers(in), attempted, failed, nil
}

// simulate runs stream k directly, resident or from its LBP2 file.
func (p *pinned) simulate(k int, timed bool) (directRun, error) {
	if !p.stream {
		return simulate(trace.NewSliceSource(p.traces[k]), timed)
	}
	src, err := trace.OpenSource(p.files[k])
	if err != nil {
		return directRun{}, err
	}
	d, err := simulate(src, timed)
	if cerr := trace.CloseSource(src); err == nil {
		err = cerr
	}
	return d, err
}

// schemeTimer wraps every scheme a harness spec builds and keeps the
// decorators, so their clocks can be summed after the sweep.
type schemeTimer struct {
	mu   sync.Mutex // makers run on the runner's worker goroutines
	made []*timedScheme
}

func (st *schemeTimer) wrap(mk harness.SchemeMaker) harness.SchemeMaker {
	if mk == nil {
		return nil
	}
	return func() repair.Scheme {
		s := &timedScheme{inner: mk()}
		st.mu.Lock()
		st.made = append(st.made, s)
		st.mu.Unlock()
		return s
	}
}

func (st *schemeTimer) clocks() repairClocks {
	var c repairClocks
	for _, s := range st.made {
		c.add(s.clk)
	}
	return c
}

// traced alternates untraced table3 sweeps and traced sweeps, which run the
// same specs one by one with every scheme decorated, for the given time.
// The traced sweep's outcomes must equal the untraced sweep's. Then it
// generates the quick suite's traces, simulates them directly untraced and
// traced under the pinned scheme for the core and memory counts, and
// replays them through each layer.
func (s *sweep) traced(seconds float64) (map[string]metric, int, int, error) {
	var in layerInputs
	attempted, failed := 0, 0
	var cpuNs, wallNs int64
	specs := table3Specs()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		r := s.runner()
		c0, t0 := cpuClock(clockProcessCPU), nanotime()
		text, err := table3(r)
		wallNs += nanotime() - t0
		cpuNs += cpuClock(clockProcessCPU) - c0
		attempted++
		if err == nil && text != s.ref {
			err = fmt.Errorf("the Table 3 text differs from the reference")
		}
		if err != nil {
			failed++
			fmt.Fprintf(s.o.out, "untraced sweep: %v\n", err)
		}
		in.plainNs = append(in.plainNs, ratio(float64(nanotime()-t0), float64(s.sweepInsts())))

		tr := s.runner()
		timer := &schemeTimer{}
		t1 := nanotime()
		for _, spec := range specs {
			ref := r.Run(spec) // memoized by the untraced sweep
			spec.Scheme = timer.wrap(spec.Scheme)
			ts := nanotime()
			outs := tr.Run(spec)
			if i == 0 {
				fmt.Fprintf(s.o.out, "  %-28s %8.1f ms\n", spec.Label, float64(nanotime()-ts)/1e6)
			}
			in.runs += float64(len(outs))
			for k := range outs {
				in.repStats.Repairs += outs[k].Repair.Repairs
				in.repStats.RepairReads += outs[k].Repair.RepairReads
				in.repStats.BusyCycles += outs[k].Repair.BusyCycles
				in.repStats.CkptMisses += outs[k].Repair.CkptMisses
				if outs[k].Err != nil {
					in.failed++
				}
				if outs[k].Err != nil || ref[k].Err != nil || outs[k].Result != ref[k].Result || outs[k].Repair != ref[k].Repair {
					failed++
					fmt.Fprintf(s.o.out, "traced %s on %s differs from the untraced run\n", spec.Label, outs[k].Result.Workload)
				}
			}
			if spec.Scheme != nil {
				in.repInsts += float64(len(outs) * s.o.sweepInsts)
			}
		}
		in.tracedNs = append(in.tracedNs, ratio(float64(nanotime()-t1), float64(s.sweepInsts())))
		in.repClk.add(timer.clocks())
		in.repOps++
		attempted++
	}
	in.runs /= float64(in.repOps)
	in.failed /= float64(in.repOps)
	in.cpuUtil = ratio(float64(cpuNs), float64(wallNs)*float64(s.workers()))

	var trs [][]trace.Inst
	t0 := nanotime()
	total := 0
	for _, w := range workloads.QuickSuite() {
		tr := w.Generate(s.o.sweepInsts)
		trs = append(trs, tr)
		total += len(tr)
	}
	in.generateNsInst = ratio(float64(nanotime()-t0), float64(total))
	for _, tr := range trs {
		plain, err := simulate(trace.NewSliceSource(tr), false)
		if err != nil {
			return nil, 0, 0, err
		}
		timed, err := simulate(trace.NewSliceSource(tr), true)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := sameRun(timed, plain); err != nil {
			failed++
			fmt.Fprintf(s.o.out, "direct run: %v\n", err)
		}
		attempted++
		in.plain.add(plain)
		in.timed.add(timed)
	}
	rep, err := replay(trs)
	if err != nil {
		return nil, 0, 0, err
	}
	in.rep = rep
	fmt.Fprintf(s.o.out, "quick-sweep traced: %d untraced and %d traced sweeps\n", len(in.plainNs), in.repOps)
	return layers(in), attempted, failed, nil
}
