package core

import (
	"errors"
	"fmt"
	"io"

	"localbp/internal/audit"
	"localbp/internal/bpu"
	"localbp/internal/trace"
)

// Streaming replay: the core consumes a trace.Source through a sliding
// window instead of a resident []Inst, so multi-million-instruction traces
// simulate at fixed memory.
//
// Correctness of the window: fetch only ever moves pos forward, except for
// mispredict/early-resteer rewinds to e.streamPos+1 where e is an in-flight
// entry (ROB or alloc queue). The real-path in-flight population is bounded
// by ROBSize + AllocQueue, so every rewind target is within that distance of
// pos; a refill that retains streamWindow = ROBSize + AllocQueue + slack
// entries behind pos therefore never evicts a reachable rewind target, and a
// streamed run is bit-identical to the resident-program run (pinned by
// TestStreamBitIdentical and the quick-suite file-replay golden test).

// streamChunk is how many instructions a refill reads beyond the retained
// window: large enough to amortize decode, small enough to keep the buffer
// ~1 MiB at the default config.
const streamChunk = 1 << 15

// ErrTraceSource is the sentinel wrapped by SourceError. Match with
// errors.Is(err, core.ErrTraceSource).
var ErrTraceSource = errors.New("core: trace source failed")

// SourceError reports a streamed run aborted because its trace source failed
// mid-run (I/O error, CRC mismatch, stream shorter than its declared length).
type SourceError struct {
	Cycle int64
	Pos   int // stream index at which fetch needed the failed refill
	Cause error
}

// Error renders the position and cause.
func (e *SourceError) Error() string {
	return fmt.Sprintf("core: trace source failed at instruction %d (cycle %d): %v", e.Pos, e.Cycle, e.Cause)
}

// Unwrap lets errors.Is match both ErrTraceSource and the cause.
func (e *SourceError) Unwrap() error { return ErrTraceSource }

// NewStream builds a core that fetches from src through a fixed-size sliding
// window. A source backed by an in-memory slice short-circuits to the
// resident-program core (same object, zero window overhead). The source must
// be positioned at the stream start and is consumed exclusively by this core;
// the caller retains ownership for closing.
func NewStream(cfg Config, unit *bpu.Unit, src trace.Source) (*Core, error) {
	if tr, ok := trace.SourceSlice(src); ok {
		return New(cfg, unit, tr), nil
	}
	total := src.Len()
	if total <= 0 {
		return nil, errors.New("core: empty trace source")
	}
	c := New(cfg, unit, nil)
	c.src = src
	c.total = total
	c.streamWindow = cfg.ROBSize + cfg.AllocQueue + 64
	c.prog = make([]trace.Inst, 0, c.streamWindow+streamChunk)
	return c, nil
}

// refill slides the window forward: retain the last streamWindow entries
// behind pos (rewind targets), fill the rest of the buffer from the source,
// and hand the new chunk to the memory-outcome producer (feed.go). It
// returns true when prog[pos-base] is readable afterwards; false means
// srcErr (or an integrity error) is set and the run must abort.
func (c *Core) refill() bool {
	if c.src == nil {
		// Resident program: pos hit len(prog) only if total was overstated,
		// which New makes impossible; treat as a modeling bug.
		c.srcErr = fmt.Errorf("fetch past resident program end (pos %d, len %d)", c.pos, len(c.prog))
		return false
	}
	if c.srcErr != nil {
		return false
	}
	// The producer reads prog and writes the track: both move only once it
	// has probed the previous chunk.
	c.awaitChunks()
	keepFrom := c.pos - c.streamWindow
	if keepFrom < c.base {
		keepFrom = c.base
	}
	n := copy(c.prog, c.prog[keepFrom-c.base:])
	c.base = keepFrom
	c.prog = c.prog[:n]
	// Keep the outcomes not consumed yet. They belong to retained
	// instructions (the next real-path allocation lies at most AllocQueue
	// behind pos), so beside them the track has room for the next chunk's.
	k := copy(c.memTrack, c.memTrack[c.memPos-c.memBase:c.memAvail-c.memBase])
	c.memBase = c.memPos
	if k > n {
		c.violation(0, audit.InvMemTrack, fmt.Sprintf(
			"  %d unconsumed outcomes outnumber the %d retained instructions", k, n))
		return false
	}
	for len(c.prog) < cap(c.prog) {
		m, err := c.src.Next(c.prog[len(c.prog):cap(c.prog)])
		c.prog = c.prog[:len(c.prog)+m]
		if err == io.EOF {
			if c.base+len(c.prog) < c.total {
				c.srcErr = fmt.Errorf("stream ended at instruction %d of %d", c.base+len(c.prog), c.total)
				return false
			}
			break
		}
		if err != nil {
			c.srcErr = err
			return false
		}
	}
	if c.pos-c.base >= len(c.prog) {
		c.srcErr = fmt.Errorf("refill produced no instructions at %d of %d", c.pos, c.total)
		return false
	}
	c.handFeed(c.prog[n:], c.memTrack[k:])
	return true
}
