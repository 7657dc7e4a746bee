package core

import (
	"context"
	"fmt"

	"localbp/internal/audit"
	"localbp/internal/bpu"
	"localbp/internal/bpu/btb"
	"localbp/internal/mem"
	"localbp/internal/obs"
	"localbp/internal/repair"
	"localbp/internal/trace"
)

// robEntry is one reorder-buffer slot.
type robEntry struct {
	seq       uint64
	done      int64 // completion cycle; wrong-path entries never complete
	class     trace.Class
	isBranch  bool
	wrongPath bool
	resolved  bool
	streamPos int // index in the trace (real-path instructions only)
}

// fetchSlot is one allocation-queue entry (fetched, not yet allocated).
type fetchSlot struct {
	inst      trace.Inst
	ready     int64 // cycle at which it may allocate (fetch + frontend depth)
	wrongPath bool
	streamPos int
}

// resolution is a pending branch-execution event. Pending resolutions live in
// a resolutionHeap (see resolutions.go) and pop in (done, seq) ascending order.
type resolution struct {
	done int64
	seq  uint64
	rob  int64 // absolute ROB index
	rec  *bpu.BranchRec
}

// resource models a bank of pipelined units (ALUs, multipliers, FP units,
// load and store ports) as a binary min-heap of next-free cycles; allocation
// picks the earliest-free unit and returns the earliest start cycle at or
// after `at`.
//
// Units are interchangeable — take's start cycle is a function of the
// multiset of free cycles, never of which unit carries which cycle — so the
// heap's internal reordering is bit-identical to a linear min scan.
type resource struct {
	free []int64
}

func newResource(n int) *resource { return &resource{free: make([]int64, n)} }

// take reserves a unit for the one cycle an issue occupies a pipelined unit
// and returns the actual start (>= at, delayed if all units busy). One- and
// two-unit banks (multipliers, store ports, FP units, load ports in the
// Table 2 config) are special-cased: the heap degenerates to an assignment
// or a single compare.
func (r *resource) take(at int64) int64 {
	f := r.free
	start := at
	if f[0] > start {
		start = f[0]
	}
	v := start + 1
	switch len(f) {
	case 1:
		f[0] = v
	case 2:
		if f[1] < v {
			f[0], f[1] = f[1], v
		} else {
			f[0] = v
		}
	default:
		r.replaceMin(v)
	}
	return start
}

// replaceMin overwrites the heap minimum with v and restores heap order.
// v is always >= the displaced minimum, so a single sift-down suffices.
func (r *resource) replaceMin(v int64) {
	f := r.free
	i := 0
	for {
		k := 2*i + 1
		if k >= len(f) {
			break
		}
		if k+1 < len(f) && f[k+1] < f[k] {
			k++
		}
		if f[k] >= v {
			break
		}
		f[i] = f[k]
		i = k
	}
	f[i] = v
}

// Core is one simulated out-of-order core.
type Core struct {
	cfg  Config
	unit *bpu.Unit
	mem  *mem.Hierarchy
	btb  *btb.BTB

	// Memory outcomes (feed.go): the k-th real-path load or store takes
	// outcome k of the run's memory track, memTrack[k-memBase], and mem only
	// accounts it. memPos counts the outcomes consumed and memAvail those
	// known to be written; a stream's refill slides memBase. feed is the
	// producer that fills memTrack, nil when NewReplay handed the track in
	// whole; a core with a feed owns memTrack and Recycle returns it.
	memTrack []mem.Outcome
	memBase  int
	memPos   int
	memAvail int
	feed     *memFeed

	// Instruction stream. With a resident program (New), prog holds the
	// whole trace, base is 0 and total == len(prog). With a streaming
	// source (NewStream), prog is a sliding window: it holds stream
	// indices [base, base+len(prog)), retaining streamWindow entries
	// behind pos so mispredict/resteer rewinds (bounded by the in-flight
	// population: ROBSize + AllocQueue) always land inside the buffer.
	prog         []trace.Inst
	pos          int // next real-path instruction to fetch (stream index)
	base         int // stream index of prog[0]
	total        int // total stream length
	src          trace.Source
	streamWindow int
	srcErr       error

	// ROB as a ring with absolute head/tail indices. The backing array is
	// sized to the next power of two above the configured capacity so the
	// per-access slot computation is a mask instead of an int64 division;
	// robSize carries the architectural occupancy bound.
	rob     []robEntry
	robHead int64
	robTail int64
	robMask int64
	robSize int
	// robRec runs parallel to rob (same mask): keeping the branch-record
	// pointers out of robEntry makes the hot alloc-time entry write a
	// pointer-free store (no GC write barrier on the ring).
	robRec []*bpu.BranchRec

	fetchQ []fetchSlot
	fqHead int
	fqTail int
	fqMask int
	// fqCount/fqSize mirror the ROB split: the ring is power-of-two sized
	// for mask wrapping, fqSize is the architectural capacity.
	fqCount int
	fqSize  int
	// fqRec runs parallel to fetchQ, for the same reason as robRec.
	fqRec []*bpu.BranchRec

	resolutions resolutionHeap

	regReady [trace.NumRegs]int64

	alus, muls, fps, ldPorts, stPorts *resource

	cycle int64
	seq   uint64
	seqBr uint64

	// disableFastForward makes the cycle loop iterate every cycle instead of
	// skipping provably idle windows (see fastforward.go). The skip is exact,
	// so only the in-package differential tests set it, to compare the two
	// loops.
	disableFastForward bool

	// Divergence state: set while an unresolved branch's prediction
	// disagrees with the trace; fetch synthesizes wrong-path instructions
	// until the branch resolves (or an alloc-stage override cancels it).
	diverged    bool
	fetchHoldTo int64 // fetch stalled until this cycle (resteer penalty)
	wrongLeft   int   // wrong-path budget for this divergence

	// Wrong-path synthesizer: fixed ring of recent real instructions (no
	// heap allocation; wpWindow is its capacity).
	recent    [wpWindow]trace.Inst
	recentLen int
	recentPos int
	wpCursor  int

	stats     Stats
	warmStats Stats
	warmCPI   obs.CPIStack // the CPI stack at the warm-up point
	warmDone  bool
	// The scheme's repair statistics and the unit's override counts at the
	// warm-up point (WarmCounts).
	warmRepair       repair.Stats
	warmOv, warmOvOK uint64

	// Integrity state: the first invariant violation aborts the run with a
	// structured error instead of a panic. lastRetSeq backs the audit-gated
	// retire-monotonicity check.
	integrity  *audit.IntegrityError
	lastRetSeq uint64
	hasRetired bool

	// Observability (all nil/zero when disabled; the per-cycle nil checks
	// are the entire disabled-path cost).
	cpi    *obs.CPIStack
	tracer *obs.Tracer
	// busyFn reports the repair scheme's busy-window end for repair-busy
	// CPI attribution (nil when the scheme has none).
	busyFn func() int64
	// cpiFrontHold is the cycle until which an empty ROB is attributed to
	// front-end-resteer: the fetch hold plus the front-end refill depth
	// after a mispredict flush, early resteer, or BTB miss.
	cpiFrontHold int64
}

// BlockMemoCounters reports (hits, misses, stores, invalidations) of the
// basic-block timing memo, which has been removed: on the synthetic suite it
// never hit. It always returns zeros and stays only because the benchmark's
// traced run still reads it (core.blockmemo_hit_ratio).
func (c *Core) BlockMemoCounters() (int64, int64, int64, int64) {
	return 0, 0, 0, 0
}

// New builds a core over the given program with the given prediction unit.
// Its loads and stores take their outcomes from a producer goroutine that
// RunContext starts (feed.go).
func New(cfg Config, unit *bpu.Unit, prog []trace.Inst) *Core {
	return newCore(cfg, unit, prog)
}

// NewReplay is New for a core handed its whole memory track: track is the
// outcomes MemTrack recorded for prog under cfg.Mem, so RunContext starts no
// producer, and the run reports what a New core's run reports. A track that
// runs short, or that a completed run leaves partly unread, fails the run
// with an InvMemTrack integrity error.
func NewReplay(cfg Config, unit *bpu.Unit, prog []trace.Inst, track []mem.Outcome) *Core {
	c := newCore(cfg, unit, prog)
	c.memTrack, c.memAvail = track, len(track)
	return c
}

// MemTrack records, in program order, the outcome of every load and store in
// prog under the hierarchy cfg, with the producer's probe loop: the track a
// run of prog consumes, whether its producer fills it or NewReplay is handed
// it. The sequence does not depend on the core's timing: wrong-path
// instructions never reach the hierarchy, each real-path load or store
// reaches it exactly once and in program order (allocation is in order and a
// flush rewinds fetch behind it), and the cycle only stamps prefetch-hit
// trace events, which Account emits on the core's side.
func MemTrack(cfg mem.HierarchyConfig, prog []trace.Inst) []mem.Outcome {
	n := 0
	for i := range prog {
		if prog[i].IsMem() {
			n++
		}
	}
	track := make([]mem.Outcome, n)
	h := mem.New(cfg)
	new(memFeed).probe(h, prog, track)
	h.Recycle()
	return track
}

func newCore(cfg Config, unit *bpu.Unit, prog []trace.Inst) *Core {
	c := &Core{
		cfg:     cfg,
		unit:    unit,
		mem:     mem.NewReplay(cfg.Mem),
		prog:    prog,
		total:   len(prog),
		rob:     make([]robEntry, nextPow2(cfg.ROBSize)),
		robRec:  make([]*bpu.BranchRec, nextPow2(cfg.ROBSize)),
		robMask: int64(nextPow2(cfg.ROBSize) - 1),
		robSize: cfg.ROBSize,
		fetchQ:  make([]fetchSlot, nextPow2(cfg.AllocQueue)),
		fqRec:   make([]*bpu.BranchRec, nextPow2(cfg.AllocQueue)),
		fqMask:  nextPow2(cfg.AllocQueue) - 1,
		fqSize:  cfg.AllocQueue,
		alus:    newResource(cfg.ALUs),
		muls:    newResource(cfg.Muls),
		fps:     newResource(cfg.FPs),
		ldPorts: newResource(cfg.LoadPorts),
		stPorts: newResource(cfg.StorePorts),
	}
	// Pre-size the branch-record pool for the worst-case in-flight branch
	// population (alloc queue + ROB, plus slack for records awaiting a
	// squashed resolution) so the steady-state GetRec/PutRec cycle and the
	// TAGE checkpoint saves never allocate.
	unit.Prealloc(cfg.AllocQueue + cfg.ROBSize + 64)
	if cfg.BTB.Entries > 0 {
		c.btb = btb.New(cfg.BTB)
	}
	if h := cfg.Obs; h != nil {
		c.cpi = h.CPI
		c.tracer = h.Tracer
		if h.Reg != nil {
			h.Reg.AddSource("core", c.emitCounters)
		}
		c.mem.AttachObs(h.Reg, h.Tracer)
		if br, ok := unit.Scheme.(interface{ BusyUntil() int64 }); ok {
			c.busyFn = br.BusyUntil
		}
	}
	return c
}

// emitCounters is the registry pull source for the core's native counters.
func (c *Core) emitCounters(emit func(string, uint64)) {
	emit("cycles", uint64(c.cycle))
	emit("insts", c.stats.Insts)
	emit("branches", c.stats.Branches)
	emit("mispredicts", c.stats.Mispredicts)
	emit("tage-mispredicts", c.stats.TageMispredicts)
	emit("flushes", c.stats.Flushes)
	emit("early-resteers", c.stats.EarlyResteers)
	emit("wrong-path-insts", c.stats.WrongPathInsts)
	emit("fetch-stall-cycles", uint64(c.stats.FetchStallCycles))
	emit("btb-misses", c.stats.BTBMisses)
	ov, ovc := c.unit.OverrideStats()
	emit("overrides", ov)
	emit("overrides-correct", ovc)
}

// Stats returns the accumulated statistics.
func (c *Core) Stats() Stats { return c.stats }

// WarmCounts returns the scheme's repair statistics and the unit's override
// counts saved at the warm-up point (zeros without a warm-up). harness.Run
// subtracts them, so that like Stats they cover the measured instructions
// only. The core restarts the scheme's NeededMax there instead, so it is
// already the measured maximum.
func (c *Core) WarmCounts() (repair.Stats, uint64, uint64) {
	return c.warmRepair, c.warmOv, c.warmOvOK
}

// Mem exposes the core's memory hierarchy, which accounts every access:
// Stats and PrefetchHits cover the run (examples and tests).
func (c *Core) Mem() *mem.Hierarchy { return c.mem }

// Recycle keeps the memory track its producer filled as the spare buffer for
// a future run; a track handed to NewReplay stays its owner's, and the
// producer recycles its own hierarchy. The core must not be used afterwards;
// callers that still need further stepping must skip it. Purely a
// performance hand-over — a run that never recycles behaves identically.
func (c *Core) Recycle() {
	if c.feed != nil {
		putTrack(c.memTrack)
		c.memTrack, c.feed = nil, nil
	}
}

// nextPow2 returns the smallest power of two >= n (n >= 1), so ring slot
// arithmetic is a mask instead of a division.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (c *Core) robAt(abs int64) *robEntry { return &c.rob[abs&c.robMask] }
func (c *Core) robLen() int               { return int(c.robTail - c.robHead) }

// fqSlot reserves the tail slot for in-place construction; the caller fills
// it through the returned pointer (one write instead of build-then-copy).
func (c *Core) fqSlot() (*fetchSlot, int) {
	i := c.fqTail
	c.fqTail = (i + 1) & c.fqMask
	c.fqCount++
	return &c.fetchQ[i], i
}

func (c *Core) fqPeek() *fetchSlot { return &c.fetchQ[c.fqHead] }

// fqPop consumes the head slot, returning a pointer into the ring. The slot's
// storage stays intact until the next fqSlot reservation wraps onto it —
// which cannot happen before the caller is done with it, because allocation
// (the only consumer) runs before fetch (the only producer) within a cycle.
func (c *Core) fqPop() (*fetchSlot, *bpu.BranchRec) {
	i := c.fqHead
	c.fqHead = (i + 1) & c.fqMask
	c.fqCount--
	return &c.fetchQ[i], c.fqRec[i]
}

// fqFlush squashes every queued instruction (front-end flush).
func (c *Core) fqFlush() {
	for c.fqCount > 0 {
		_, rec := c.fqPop()
		if rec != nil {
			c.unit.Squash(rec)
		}
	}
}

// RunContext simulates until the program is exhausted and the pipeline
// drains, returning the statistics. It is the core's one run entry point.
// Unless NewReplay handed the core its memory track, RunContext starts the
// producer goroutine that fills it (feed.go), and it stops and joins that
// goroutine before every return.
//
// A watchdog trip — a cycle budget overrun or StallCycles consecutive cycles
// without a retirement — returns an ErrStalled-wrapping *StallError carrying
// a pipeline-state dump; an integrity violation returns its
// *audit.IntegrityError. Cancellation or a deadline of ctx aborts the run
// within cancelCheckMask+1 loop iterations with an ErrCanceled-wrapping
// *CancelError (errors.Is also matches the context cause). Every abort
// returns the partial statistics accumulated so far. The context checks are
// read-only — a run that completes reports the same statistics under any
// context — and a context that can never be canceled (Background) costs
// only a counter increment per iteration. The wall-clock deadline composes
// with the cycle-domain watchdog: whichever bound trips first aborts the run.
func (c *Core) RunContext(ctx context.Context) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.startFeed()
	defer c.stopFeed(true)
	done := ctx.Done()
	var iter uint64
	budget := c.cfg.MaxCycles
	if budget == 0 {
		budget = cycleBudget(c.total)
	}
	deadman := c.cfg.StallCycles
	if deadman == 0 {
		deadman = DefaultStallCycles
	}
	lastRetireCycle := int64(0)
	lastInsts := c.stats.Insts
	// Idle-cycle fast-forward: when no event can land before cycle X, jump
	// the clock there in one step instead of iterating empty cycles. The
	// skip is exact — counters, CPI attribution and watchdog behavior are
	// bit-identical to the cycle-by-cycle run (see fastforward.go). An
	// auditor's periodic scan runs at the first live cycle after each
	// boundary the skip passes over (audit.Auditor.ScanDue).
	ff := !c.disableFastForward
	for c.pos < c.total || c.robLen() > 0 || c.fqCount > 0 {
		if iter&cancelCheckMask == 0 && done != nil {
			if err := ctx.Err(); err != nil {
				c.stats.Cycles = c.cycle
				return c.stats, &CancelError{Cycle: c.cycle, Insts: c.stats.Insts, Cause: err}
			}
		}
		iter++
		if ff {
			// The watchdogs fire at the end of the iteration that starts at
			// limit; clamp the jump so that iteration still runs live.
			limit := lastRetireCycle + deadman - 1
			if budget-1 < limit {
				limit = budget - 1
			}
			if x := c.idleUntil(limit); x > c.cycle {
				c.skipIdle(x - c.cycle)
				continue
			}
		}
		prevInsts := c.stats.Insts
		c.stepResolutions()
		c.stepRetire()
		c.stepAlloc()
		c.stepFetch()
		if c.cpi != nil {
			c.cpi.Add(c.classifyCycle(c.stats.Insts != prevInsts))
		}
		if a := c.cfg.Audit; a != nil {
			if a.ScanDue(c.cycle) {
				c.auditScan()
			}
			// Scheme-level checks (OBQ scans, checkpoint liveness, resync
			// equality) report into the same auditor; abort on the first.
			if e := a.First(); e != nil {
				c.fail(e)
			}
		}
		if c.integrity != nil {
			c.stats.Cycles = c.cycle
			return c.stats, c.integrity
		}
		if c.srcErr != nil {
			// A streaming refill failed (I/O error, CRC mismatch, short
			// stream); the run cannot complete faithfully.
			c.stats.Cycles = c.cycle
			return c.stats, &SourceError{Cycle: c.cycle, Pos: c.pos, Cause: c.srcErr}
		}
		c.cycle++
		if !c.warmDone && c.cfg.WarmupInsts > 0 && c.stats.Insts >= c.cfg.WarmupInsts {
			c.warmDone = true
			c.warmStats = c.stats
			c.warmStats.Cycles = c.cycle
			if c.cpi != nil {
				c.warmCPI = *c.cpi
			}
			c.warmOv, c.warmOvOK = c.unit.OverrideStats()
			if sc := c.unit.Scheme; sc != nil {
				rst := sc.Stats()
				c.warmRepair = *rst
				rst.NeededMax = 0 // a maximum does not subtract: restart it
			}
		}
		if c.stats.Insts != lastInsts {
			lastInsts = c.stats.Insts
			lastRetireCycle = c.cycle
		} else if c.cycle-lastRetireCycle >= deadman {
			c.stats.Cycles = c.cycle
			return c.stats, &StallError{
				Reason: fmt.Sprintf("no-retire deadman: no instruction retired in %d cycles", deadman),
				Cycle:  c.cycle,
				Dump:   c.dumpState(),
			}
		}
		if c.cycle >= budget {
			c.stats.Cycles = c.cycle
			return c.stats, &StallError{
				Reason: fmt.Sprintf("cycle budget: exceeded %d cycles for %d instructions", budget, c.total),
				Cycle:  c.cycle,
				Dump:   c.dumpState(),
			}
		}
	}
	c.stats.Cycles = c.cycle
	if c.cpi != nil && c.cpi.Total() != c.cycle {
		// The CPI accounting invariant: exactly one bucket per cycle, so
		// the stack must sum to the cycle count on a completed run.
		c.violation(0, audit.InvCPIAccounting, fmt.Sprintf(
			"  cpi-stack attributed %d cycles, core ran %d", c.cpi.Total(), c.cycle))
	}
	c.stopFeed(false)
	if c.memPos != c.memAvail {
		c.violation(0, audit.InvMemTrack, fmt.Sprintf(
			"  run consumed %d of %d memory-track outcomes", c.memPos, c.memAvail))
	}
	if g := c.cfg.Golden; g != nil {
		// The raw (pre-warmup-subtraction) counters are what the golden
		// model accumulated alongside.
		if e := g.Finish(c.stats.Insts, c.stats.Branches, c.cycle); e != nil {
			c.fail(e)
		}
	}
	if a := c.cfg.Audit; a != nil {
		if e := a.First(); e != nil {
			c.fail(e)
		}
	}
	if c.integrity != nil {
		return c.stats, c.integrity
	}
	if c.warmDone {
		// Like Stats, the CPI stack reports only the measured cycles; the
		// accounting invariant above checked the whole run.
		if c.cpi != nil {
			c.cpi.Sub(&c.warmCPI)
		}
		return c.stats.sub(c.warmStats), nil
	}
	return c.stats, nil
}

// fail latches the first integrity violation; RunContext aborts on it at the
// end of the current cycle.
func (c *Core) fail(e *audit.IntegrityError) {
	if c.integrity == nil {
		c.integrity = e
	}
}

// violation builds an IntegrityError with the standard pipeline dump,
// records it in the auditor when one is attached, and latches it.
func (c *Core) violation(pc uint64, invariant, detail string) {
	dump := detail + "\n" + c.dumpState()
	if a := c.cfg.Audit; a != nil {
		c.fail(a.Report(c.cycle, pc, invariant, dump))
		return
	}
	c.fail(&audit.IntegrityError{Cycle: c.cycle, PC: pc, Invariant: invariant, Dump: dump})
}

// auditScan is the periodic structural pass over core state: occupancy
// bounds, ROB age ordering, and the resolution-heap/ROB cross-check. It is
// strictly read-only.
func (c *Core) auditScan() {
	a := c.cfg.Audit
	n := c.robLen()
	a.Note(3 + 2*n + len(c.resolutions))
	if n < 0 || n > c.robSize || c.fqCount < 0 || c.fqCount > c.fqSize {
		c.violation(0, audit.InvOccupancy, fmt.Sprintf(
			"  rob occupancy %d/%d, alloc-queue occupancy %d/%d", n, c.robSize, c.fqCount, c.fqSize))
		return
	}
	unresolved := 0
	var prevSeq uint64
	for abs := c.robHead; abs < c.robTail; abs++ {
		e := c.robAt(abs)
		if abs > c.robHead && e.seq <= prevSeq {
			c.violation(0, audit.InvROBAgeOrder, fmt.Sprintf(
				"  rob entry at %d (seq=%d) not younger than predecessor (seq=%d)", abs, e.seq, prevSeq))
			return
		}
		prevSeq = e.seq
		if e.isBranch && !e.wrongPath && !e.resolved {
			unresolved++
		}
	}
	pending := 0
	for i := range c.resolutions {
		if !c.resolutions[i].rec.Squashed {
			pending++
		}
	}
	if pending != unresolved {
		c.violation(0, audit.InvResolutions, fmt.Sprintf(
			"  %d live pending resolutions vs %d unresolved real-path branches in the ROB",
			pending, unresolved))
	}
}

// classifyCycle attributes the cycle that just finished to exactly one CPI
// bucket via a priority decision tree (DESIGN.md §11): retired work first;
// an occupied ROB is blamed on its head (memory in flight → memory-bound,
// then repair-busy, then a full ROB, then the alloc-stall residual); an
// empty ROB is front-end-resteer while the post-flush refill window is open
// and alloc-stall otherwise.
func (c *Core) classifyCycle(retired bool) obs.CPIBucket {
	if retired {
		return obs.CPIRetired
	}
	if c.robLen() > 0 {
		e := c.robAt(c.robHead)
		if (e.class == trace.ClassLoad || e.class == trace.ClassStore) && e.done > c.cycle {
			return obs.CPIMemoryBound
		}
		if c.busyFn != nil && c.busyFn() > c.cycle {
			return obs.CPIRepairBusy
		}
		if c.robLen() >= c.robSize {
			return obs.CPIROBFull
		}
		return obs.CPIAllocStall
	}
	if c.cycle < c.cpiFrontHold {
		return obs.CPIFrontendResteer
	}
	return obs.CPIAllocStall
}

// noteResteer extends the front-end-resteer attribution window: after a
// fetch hold the front end still needs FrontendDepth cycles to refill before
// allocation resumes. Only called when the CPI stack is live.
func (c *Core) noteResteer() {
	if h := c.fetchHoldTo + c.cfg.FrontendDepth; h > c.cpiFrontHold {
		c.cpiFrontHold = h
	}
}

// stepResolutions processes branch executions due this cycle, oldest first.
func (c *Core) stepResolutions() {
	c.resolutions.drain(c.cycle, c.resolveOne)
}

// resolveOne handles a single due resolution (the resolutionHeap drain
// callback).
func (c *Core) resolveOne(r *resolution) {
	rec := r.rec
	rec.InFlight = false
	if rec.Squashed {
		c.unit.PutRec(rec)
		return
	}
	e := c.robAt(r.rob)
	misp := c.unit.Resolve(rec, c.cycle)
	e.resolved = true
	if c.btb != nil && rec.Ctx.ActualTaken {
		c.btb.Insert(rec.Ctx.PC, 0)
	}
	if rec.TagePred != rec.Ctx.ActualTaken {
		c.stats.TageMispredicts++
	}
	if misp {
		c.stats.Mispredicts++
		c.handleMispredict(r.rob, e)
	}
}

// handleMispredict flushes younger instructions and re-steers fetch. Only
// the oldest divergence can reach here (fetch stops producing real-path
// instructions past the first mispredicted branch), so the divergence — if
// still active — always belongs to this branch.
func (c *Core) handleMispredict(robIdx int64, e *robEntry) {
	c.stats.Flushes++
	if rec := c.robRec[robIdx&c.robMask]; c.tracer != nil && rec != nil {
		c.tracer.Emit(obs.EvMispredict, c.cycle, rec.Ctx.PC, int64(rec.Ctx.Seq))
	}
	c.flushROBAfter(robIdx)
	c.fqFlush()
	c.diverged = false
	c.pos = e.streamPos + 1
	hold := c.cycle + c.cfg.ResteerPenalty
	if hold > c.fetchHoldTo {
		c.fetchHoldTo = hold
	}
	if c.cpi != nil {
		c.noteResteer()
	}
}

func (c *Core) flushROBAfter(robIdx int64) {
	for abs := c.robTail - 1; abs > robIdx; abs-- {
		if rec := c.robRec[abs&c.robMask]; rec != nil {
			c.unit.Squash(rec)
			c.robRec[abs&c.robMask] = nil
		}
	}
	c.robTail = robIdx + 1
}

// stepRetire retires completed instructions in order.
func (c *Core) stepRetire() {
	for retired := 0; retired < c.cfg.Width && c.robLen() > 0; retired++ {
		e := c.robAt(c.robHead)
		rec := c.robRec[c.robHead&c.robMask]
		if e.wrongPath {
			// Wrong-path instructions are always flushed before
			// reaching the head; seeing one here is a model bug.
			c.violation(0, audit.InvWrongPathHead, fmt.Sprintf(
				"  rob head entry seq=%d class=%v is wrong-path", e.seq, e.class))
			return
		}
		if e.done > c.cycle || (e.isBranch && !e.resolved) {
			return
		}
		if a := c.cfg.Audit; a != nil {
			a.Note(2)
			if c.hasRetired && e.seq <= c.lastRetSeq {
				c.violation(0, audit.InvRetireMonotonic, fmt.Sprintf(
					"  retiring seq=%d after seq=%d", e.seq, c.lastRetSeq))
				return
			}
			if e.isBranch && rec == nil {
				c.violation(0, audit.InvBranchRecord, fmt.Sprintf(
					"  retiring branch seq=%d carries no prediction record", e.seq))
				return
			}
		}
		if g := c.cfg.Golden; g != nil {
			// Read the branch record before Retire recycles it.
			var pc uint64
			var taken bool
			if e.isBranch && rec != nil {
				pc, taken = rec.Ctx.PC, rec.Ctx.ActualTaken
			}
			if err := g.Retire(e.streamPos, e.class, e.isBranch, pc, taken, c.cycle); err != nil {
				c.fail(err)
				if a := c.cfg.Audit; a != nil {
					a.Report(err.Cycle, err.PC, err.Invariant, err.Dump)
				}
				return
			}
		}
		c.lastRetSeq, c.hasRetired = e.seq, true
		if e.isBranch {
			c.stats.Branches++
			if rec != nil {
				c.unit.Retire(rec)
				c.robRec[c.robHead&c.robMask] = nil
			}
		}
		c.stats.Insts++
		c.robHead++
	}
}

// stepAlloc moves instructions from the allocation queue into the ROB,
// computing their execution timing.
func (c *Core) stepAlloc() {
	for n := 0; n < c.cfg.Width; n++ {
		if c.fqCount == 0 || c.robLen() >= c.robSize || c.fqPeek().ready > c.cycle {
			return
		}
		s, rec := c.fqPop()
		abs := c.robTail
		e := c.robAt(abs)
		*e = robEntry{
			seq:       c.seq,
			class:     s.inst.Class,
			isBranch:  s.inst.IsBranch(),
			wrongPath: s.wrongPath,
			streamPos: s.streamPos,
			done:      1 << 62,
		}
		c.robRec[abs&c.robMask] = rec
		c.seq++
		c.robTail++

		if s.wrongPath {
			// Wrong-path work occupies the slot but is not executed.
			if e.isBranch && rec != nil {
				c.unit.AllocStage(rec, c.cycle) // BHT-Defer pollution
			}
			continue
		}

		done := c.execTiming(&s.inst)
		e.done = done
		if e.isBranch {
			if rec == nil {
				c.violation(s.inst.PC, audit.InvBranchRecord, fmt.Sprintf(
					"  allocating branch seq=%d pc=%#x without a prediction record", e.seq, s.inst.PC))
				return
			}
			if c.unit.AllocStage(rec, c.cycle) {
				c.handleEarlyResteer(e, rec)
			}
			rec.InFlight = true
			c.resolutions.push(resolution{done: done, seq: e.seq, rob: abs, rec: rec})
		}
	}
}

// handleEarlyResteer applies a multi-stage allocation-stage override
// (paper §3.2): the front end flushes and refetches down the corrected
// direction.
func (c *Core) handleEarlyResteer(e *robEntry, rec *bpu.BranchRec) {
	c.stats.EarlyResteers++
	if c.tracer != nil {
		c.tracer.Emit(obs.EvEarlyResteer, c.cycle, rec.Ctx.PC, int64(rec.Ctx.Seq))
	}
	c.fqFlush()
	hold := c.cycle + c.cfg.EarlyResteerPenalty
	if hold > c.fetchHoldTo {
		c.fetchHoldTo = hold
	}
	if c.cpi != nil {
		c.noteResteer()
	}
	if rec.Ctx.PredTaken == rec.Ctx.ActualTaken {
		// The override fixed a misprediction: cancel the divergence and
		// resume real-path fetch after this branch.
		c.diverged = false
	} else {
		// The override broke a correct prediction: fetch goes down the
		// wrong path until the branch resolves at execute.
		c.diverged = true
		c.wrongLeft = c.cfg.MaxWrongPathPerFlush
		c.wpCursor = 0
	}
	c.pos = e.streamPos + 1
}

// execTiming computes the completion cycle of a real-path instruction,
// honoring register dependences, functional-unit and port occupancy, and
// memory latency.
func (c *Core) execTiming(in *trace.Inst) int64 {
	ready := c.cycle + 1
	if t := c.regReady[in.Src1]; t > ready {
		ready = t
	}
	if t := c.regReady[in.Src2]; t > ready {
		ready = t
	}

	var start, lat int64
	switch in.Class {
	case trace.ClassLoad:
		start = c.ldPorts.take(ready)
		lat = c.memAccess(in)
	case trace.ClassStore:
		start = c.stPorts.take(ready)
		lat = 1
		// Stores complete at retire; data path latency hidden.
		c.memAccess(in)
	case trace.ClassMul:
		start = c.muls.take(ready)
		lat = c.cfg.LatMul
	case trace.ClassFP:
		start = c.fps.take(ready)
		lat = c.cfg.LatFP
	default: // ALU and branches
		start = c.alus.take(ready)
		lat = c.cfg.LatALU
	}
	done := start + lat
	if in.Dst != 0 {
		c.regReady[in.Dst] = done
	}
	return done
}

// memAccess returns the latency of a real-path load or store: it takes the
// next memory-track outcome and accounts it.
func (c *Core) memAccess(in *trace.Inst) int64 {
	if c.memPos >= c.memAvail && !c.awaitMem() {
		c.violation(in.PC, audit.InvMemTrack, fmt.Sprintf(
			"  memory track ran out: load/store %d needs an outcome, the track holds %d", c.memPos+1, c.memAvail))
		return 1
	}
	o := c.memTrack[c.memPos-c.memBase]
	c.memPos++
	return c.mem.Account(o, in.Addr, c.cycle)
}

// stepFetch brings up to Width instructions into the allocation queue,
// running branch prediction and wrong-path synthesis.
func (c *Core) stepFetch() {
	if c.cycle < c.fetchHoldTo {
		c.stats.FetchStallCycles++
		return
	}
	ready := c.cycle + c.cfg.FrontendDepth
	for n := 0; n < c.cfg.Width && c.fqCount < c.fqSize; n++ {
		wrongPath := c.diverged
		var slot *fetchSlot
		var si int
		if wrongPath {
			if !c.cfg.WrongPath || c.wrongLeft <= 0 {
				return // fetch stalls until the divergence resolves
			}
			c.wrongLeft--
			// The slot is reserved only after the stall checks above, so an
			// early return never consumes ring space; the synthesizer writes
			// the instruction in place (no intermediate copy).
			slot, si = c.fqSlot()
			c.nextWrongPath(&slot.inst)
			slot.streamPos = -1
			c.stats.WrongPathInsts++
		} else {
			if c.pos >= c.total {
				return
			}
			if c.pos-c.base >= len(c.prog) && !c.refill() {
				return // srcErr or an integrity error is set; RunContext aborts at cycle end
			}
			slot, si = c.fqSlot()
			slot.inst = c.prog[c.pos-c.base]
			slot.streamPos = c.pos
			c.pos++
			c.noteRecent(slot.inst)
		}
		slot.ready = ready
		slot.wrongPath = wrongPath
		c.fqRec[si] = nil
		if slot.inst.IsBranch() {
			in := &slot.inst
			rec := c.unit.GetRec()
			pred := c.unit.Predict(rec, in.PC, in.Taken, c.nextBranchSeq(), wrongPath, c.cycle)
			c.fqRec[si] = rec
			if pred && c.btb != nil {
				// A predicted-taken branch needs the BTB to redirect
				// fetch this cycle; a miss costs a decode-redirect
				// bubble (Table 2's 2K-entry BTB).
				if _, ok := c.btb.Lookup(in.PC); !ok {
					c.stats.BTBMisses++
					hold := c.cycle + c.cfg.BTBMissPenalty
					if hold > c.fetchHoldTo {
						c.fetchHoldTo = hold
					}
					if c.cpi != nil {
						c.noteResteer()
					}
				}
			}
			if !wrongPath && pred != in.Taken {
				// Divergence: subsequent fetch is wrong-path until
				// this branch resolves (or a deferred override
				// corrects it at the allocation stage).
				c.diverged = true
				c.wrongLeft = c.cfg.MaxWrongPathPerFlush
				c.wpCursor = 0
			}
		}
	}
}

func (c *Core) nextBranchSeq() uint64 {
	c.seqBr++
	return c.seqBr
}

// wpWindow is the wrong-path synthesizer's recent-instruction window size.
const wpWindow = 256

// noteRecent records a real instruction for the wrong-path synthesizer.
func (c *Core) noteRecent(in trace.Inst) {
	if c.recentLen < wpWindow {
		c.recent[c.recentLen] = in
		c.recentLen++
		return
	}
	c.recent[c.recentPos] = in
	c.recentPos = (c.recentPos + 1) % wpWindow
}

// nextWrongPath synthesizes a wrong-path instruction by replaying the recent
// real-instruction window offset by half its length: plausible PCs (so BHT
// and GHIST pollution is realistic) on a path the core will flush. The
// instruction is written into dst in place (the caller's fetch-queue slot).
func (c *Core) nextWrongPath(dst *trace.Inst) {
	if c.recentLen == 0 {
		*dst = trace.Inst{PC: 0xdead000, Class: trace.ClassALU}
		return
	}
	var idx int
	if c.recentLen == wpWindow {
		// Full window (steady state): power-of-two modulo is a mask.
		idx = (c.recentPos + wpWindow/2 + c.wpCursor) & (wpWindow - 1)
	} else {
		idx = (c.recentPos + c.recentLen/2 + c.wpCursor) % c.recentLen
	}
	c.wpCursor++
	*dst = c.recent[idx]
	if dst.IsBranch() {
		// The synthesized branch's "outcome" is unknowable; its
		// prediction will drive the speculative updates, and it is
		// flushed before resolving. Real wrong paths execute the other
		// side of a branch: only some of their branch PCs coincide
		// with hot correct-path PCs, so half are displaced to cold
		// addresses that miss the BHT.
		if c.wpCursor%2 != 0 {
			dst.PC ^= 0x40000 + uint64(c.wpCursor)<<6
		}
		dst.Taken = !dst.Taken
	}
}
