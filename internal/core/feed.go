package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"localbp/internal/mem"
	"localbp/internal/trace"
)

// The memory-outcome feed. Every real-path load or store takes the next
// outcome of the run's memory track (MemTrack says why that sequence is
// exact). A core from NewReplay is handed the whole track. Any other core's
// RunContext starts one producer goroutine that walks a hierarchy of its own
// (mem.New) over the program's loads and stores in program order and
// publishes their outcomes while the core simulates, so the hierarchy walk
// leaves the core's critical path. The core's own hierarchy (mem.NewReplay)
// only accounts, on the core's goroutine: counters, the latency histogram
// and prefetch-hit events stay there.
//
// A resident program goes to the producer whole. A streaming core hands it
// each chunk that refill reads; before refill slides the window it waits for
// the producer to finish the previous chunk (the producer reads prog) and
// keeps the outcomes not consumed yet, so the track stays bounded by the
// window plus one chunk.

// feedBatch is how many instructions the producer probes between two
// publications of its progress (and two checks for a stop).
const feedBatch = 256

// memFeed is what the core shares with its producer goroutine.
type memFeed struct {
	pub    atomic.Int64 // outcomes written so far
	chunks atomic.Int64 // chunks fully probed
	stop   atomic.Bool  // set by the core to end production early
	work   chan feedChunk
	exited chan struct{} // closed when the producer has returned

	// Core side: chunks handed over so far. work is nil once the producer
	// is joined.
	handed int64
}

// feedChunk is a piece of the program and where its outcomes go.
type feedChunk struct {
	prog []trace.Inst
	out  []mem.Outcome
}

// produce is the producer goroutine. It probes every handed chunk with a
// hierarchy of its own and recycles that hierarchy when the core closes
// work or stops it.
func (f *memFeed) produce(cfg mem.HierarchyConfig) {
	defer close(f.exited)
	h := mem.New(cfg)
	defer h.Recycle()
	for ch := range f.work {
		if !f.probe(h, ch.prog, ch.out) {
			return
		}
		f.chunks.Add(1)
	}
}

// probe is the one probe loop, shared by the producer and MemTrack: it walks
// h over the loads and stores of prog in program order, writes their
// outcomes to out and publishes the running count through pub. It returns
// false when the core stopped it.
func (f *memFeed) probe(h *mem.Hierarchy, prog []trace.Inst, out []mem.Outcome) bool {
	base, n := f.pub.Load(), 0
	for lo := 0; lo < len(prog); lo += feedBatch {
		blk := prog[lo:min(lo+feedBatch, len(prog))]
		for i := range blk {
			if blk[i].IsMem() {
				out[n] = h.Probe(blk[i].Addr)
				n++
			}
		}
		f.pub.Store(base + int64(n))
		if f.stop.Load() {
			return false
		}
	}
	return true
}

// startFeed starts the producer, unless the core was handed its whole track
// (NewReplay) or has run before. A resident program goes over whole; refill
// hands a stream's chunks.
func (c *Core) startFeed() {
	if c.memTrack != nil || c.feed != nil {
		return
	}
	f := &memFeed{work: make(chan feedChunk, 1), exited: make(chan struct{})}
	c.feed = f
	go f.produce(c.cfg.Mem)
	if c.src != nil {
		c.memTrack = takeTrack(cap(c.prog))
		return
	}
	c.memTrack = takeTrack(len(c.prog))
	c.handFeed(c.prog, c.memTrack)
}

// handFeed gives the producer its next chunk. The producer has probed every
// earlier chunk (refill waits for it), so the send never blocks.
func (c *Core) handFeed(prog []trace.Inst, out []mem.Outcome) {
	c.feed.handed++
	c.feed.work <- feedChunk{prog: prog, out: out}
}

// awaitMem runs when the core has consumed every outcome it knows of. It
// refreshes memAvail from the producer, yielding the thread while the
// producer is behind (so GOMAXPROCS=1 works), and reports whether outcome
// memPos exists. It reports false once every handed chunk is probed without
// it, or when no producer runs: the track is short.
func (c *Core) awaitMem() bool {
	f := c.feed
	if f == nil || f.work == nil {
		return false
	}
	for {
		// chunks before pub: the producer publishes its last count before
		// it counts the chunk done.
		idle := f.chunks.Load() == f.handed
		c.memAvail = int(f.pub.Load())
		if c.memPos < c.memAvail {
			return true
		}
		if idle {
			return false
		}
		runtime.Gosched()
	}
}

// awaitChunks waits until the producer has probed every handed chunk, so
// refill may move prog and the track, and refreshes memAvail.
func (c *Core) awaitChunks() {
	f := c.feed
	for f.chunks.Load() != f.handed {
		runtime.Gosched()
	}
	c.memAvail = int(f.pub.Load())
}

// stopFeed ends the producer and joins it: abort stops it mid-chunk, while a
// completed run lets it finish so memAvail counts every outcome it wrote.
// RunContext calls it on every exit.
func (c *Core) stopFeed(abort bool) {
	f := c.feed
	if f == nil || f.work == nil {
		return
	}
	if abort {
		f.stop.Store(true)
	}
	close(f.work)
	<-f.exited
	f.work = nil
	c.memAvail = int(f.pub.Load())
}

// spareTrack keeps one producer track buffer between runs (Recycle), like
// mem's hierarchy free list and for the same reason not a sync.Pool: a pool
// drops its contents at every GC, which would make a run's allocations
// depend on GC timing. One spare covers back-to-back runs; a run that finds
// none, or one too small, allocates.
var spareTrack struct {
	mu  sync.Mutex
	buf []mem.Outcome
}

// takeTrack returns a track buffer of length n, the spare when it is large
// enough.
func takeTrack(n int) []mem.Outcome {
	spareTrack.mu.Lock()
	b := spareTrack.buf
	spareTrack.buf = nil
	spareTrack.mu.Unlock()
	if cap(b) < n {
		b = make([]mem.Outcome, n)
	}
	return b[:n]
}

// putTrack makes b the spare.
func putTrack(b []mem.Outcome) {
	spareTrack.mu.Lock()
	spareTrack.buf = b
	spareTrack.mu.Unlock()
}
