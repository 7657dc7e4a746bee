package core

import (
	"errors"
	"fmt"
	"strings"
)

// ErrStalled is the sentinel wrapped by every StallError: a simulation that
// stopped making forward progress (no-retire deadman) or blew through its
// cycle budget. Match with errors.Is(err, core.ErrStalled).
var ErrStalled = errors.New("core: stalled")

// StallError reports a run aborted by the forward-progress watchdog, with a
// pipeline-state dump so a modeling bug is diagnosable instead of an
// infinite loop.
type StallError struct {
	Reason string // "no-retire deadman" or "cycle budget"
	Cycle  int64  // cycle at which the watchdog fired
	Dump   string // multi-line pipeline-state dump
}

// Error renders the reason, cycle and the dump.
func (e *StallError) Error() string {
	return fmt.Sprintf("core: stalled (%s) at cycle %d\n%s", e.Reason, e.Cycle, e.Dump)
}

// Unwrap lets errors.Is(err, ErrStalled) match.
func (e *StallError) Unwrap() error { return ErrStalled }

// dumpState snapshots the pipeline for the watchdog report.
func (c *Core) dumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  program:     pos=%d/%d (diverged=%v, wrongLeft=%d)\n",
		c.pos, c.total, c.diverged, c.wrongLeft)
	fmt.Fprintf(&b, "  fetch:       queue=%d/%d, holdTo=%d (cycle=%d)\n",
		c.fqCount, c.fqSize, c.fetchHoldTo, c.cycle)
	fmt.Fprintf(&b, "  rob:         %d/%d entries (head=%d tail=%d)\n",
		c.robLen(), c.robSize, c.robHead, c.robTail)
	if c.robLen() > 0 {
		e := c.robAt(c.robHead)
		fmt.Fprintf(&b, "  rob head:    seq=%d class=%s done=%d branch=%v resolved=%v wrongPath=%v\n",
			e.seq, e.class, e.done, e.isBranch, e.resolved, e.wrongPath)
	}
	fmt.Fprintf(&b, "  resolutions: %d pending", len(c.resolutions))
	if d, ok := c.resolutions.nextDue(); ok {
		fmt.Fprintf(&b, " (next due cycle %d)", d)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  stats:       insts=%d branches=%d mispredicts=%d flushes=%d\n",
		c.stats.Insts, c.stats.Branches, c.stats.Mispredicts, c.stats.Flushes)
	return b.String()
}
