package repair

import (
	"fmt"

	"localbp/internal/bpu/loop"
)

// Snapshot is the prior-art snapshot-queue (SQ) repair (paper §2.6): every
// predicted branch captures a full copy of the BHT in a bounded queue of
// snapshots; a misprediction restores from its snapshot. Simple, but the
// storage cost is high (Table 3 charges it 10+KB) and restoring many entries
// through limited ports takes multiple cycles. The modeled machine copies
// the whole table; the simulator keeps each snapshot as a mark in the BHT's
// undo journal, which restores the same state.
type Snapshot struct {
	schemeBase
	entries int
	ports   Ports

	ring []snapSlot
	head int64 // oldest live slot (absolute)
	tail int64 // one past youngest (absolute)
}

type snapSlot struct {
	seq  uint64
	mark int64 // BHT journal mark before the branch's SpecUpdate
	live bool
}

// NewSnapshot builds the scheme with an SQ of `entries` snapshots.
func NewSnapshot(cfg loop.Config, entries int, ports Ports) *Snapshot {
	return NewSnapshotFor(loop.New(cfg), entries, ports)
}

// NewSnapshotFor builds the scheme around any local predictor.
func NewSnapshotFor(lp loop.LocalPredictor, entries int, ports Ports) *Snapshot {
	s := &Snapshot{entries: entries, ports: ports}
	s.lp = lp
	s.ring = make([]snapSlot, entries)
	return s
}

// Name implements Scheme.
func (s *Snapshot) Name() string {
	return fmt.Sprintf("snapshot-%d-%d-%d", s.entries, s.ports.CkptRead, s.ports.BHTWrite)
}

func (s *Snapshot) slot(id int64) *snapSlot { return &s.ring[id%int64(s.entries)] }

// OnFetchBranch implements Scheme: snapshot the whole BHT (pre-update, so
// take it before SpecUpdate).
func (s *Snapshot) OnFetchBranch(ctx *BranchCtx, cycle int64) {
	if s.busy(cycle) {
		ctx.CkptSkipped = true
		s.st.CkptMisses++
		return
	}
	if int(s.tail-s.head) >= s.entries {
		// SQ full: the branch goes unprotected, but the speculative
		// update still happens (mirroring the OBQ-full behaviour).
		s.st.CkptMisses++
		s.specUpdate(ctx, cycle)
		ctx.OBQID = -1
		return
	}
	id := s.tail
	*s.slot(id) = snapSlot{seq: ctx.Seq, mark: s.lp.Mark(), live: true}
	s.tail++
	ctx.OBQID = id // reuse the checkpoint-id field for the SQ slot
	s.specUpdate(ctx, cycle)
}

// OnMispredict implements Scheme.
func (s *Snapshot) OnMispredict(ctx *BranchCtx, cycle int64) {
	s.penalize(ctx)
	s.repairRestartSnap(cycle)
	if ctx.OBQID < 0 || ctx.OBQID < s.head || ctx.OBQID >= s.tail {
		s.squashYounger(ctx.Seq)
		s.st.Unrepaired++
		return
	}
	sl := s.slot(ctx.OBQID)
	if !sl.live || sl.seq != ctx.Seq {
		s.squashYounger(ctx.Seq)
		s.st.Unrepaired++
		return
	}
	s.noteNeeded(s.lp.Rollback(sl.mark))
	s.lp.ApplyOutcome(ctx.PC, ctx.ActualTaken)
	// Hardware cannot know which entries differ: a snapshot restore
	// rewrites the whole BHT through the repair ports.
	writes := s.lp.Entries()
	// Drop snapshots younger than the repaired branch; its own snapshot
	// stays live until retirement.
	for s.tail-1 > ctx.OBQID {
		s.freeSlot(s.tail - 1)
		s.tail--
	}
	s.st.Repairs++
	s.st.RepairReads += uint64(writes)
	s.st.RepairWrites += uint64(writes)
	s.beginBusy(ctx.PC, cycle, s.ports.cycles(writes, writes))
}

func (s *Snapshot) repairRestartSnap(cycle int64) {
	if s.busy(cycle) {
		s.st.Restarts++
	}
}

func (s *Snapshot) freeSlot(id int64) { s.slot(id).live = false }

func (s *Snapshot) squashYounger(seq uint64) {
	for s.tail > s.head {
		sl := s.slot(s.tail - 1)
		if !sl.live || sl.seq <= seq {
			return
		}
		s.freeSlot(s.tail - 1)
		s.tail--
	}
}

func (s *Snapshot) release(ctx *BranchCtx) {
	if ctx.OBQID < 0 {
		return
	}
	if ctx.OBQID >= s.head && ctx.OBQID < s.tail {
		s.freeSlot(ctx.OBQID)
	}
	for s.head < s.tail && !s.slot(s.head).live {
		s.head++
	}
	// Journal records older than the oldest live snapshot can go.
	if s.head < s.tail {
		s.lp.Release(s.slot(s.head).mark)
	} else {
		s.lp.Release(s.lp.Mark())
	}
}

// OnCorrectResolve implements Scheme: a correctly-resolved branch can never
// trigger a repair, so its snapshot frees immediately (rather than at
// retirement), relieving SQ pressure.
func (s *Snapshot) OnCorrectResolve(ctx *BranchCtx, cycle int64) {
	s.release(ctx)
}

// OnRetire implements Scheme.
func (s *Snapshot) OnRetire(ctx *BranchCtx, finalMisp bool) {
	s.release(ctx)
	s.schemeBase.OnRetire(ctx, finalMisp)
}

// OnSquash implements Scheme.
func (s *Snapshot) OnSquash(ctx *BranchCtx) { s.release(ctx) }

// StorageBits implements Scheme: each snapshot stores every BHT pattern
// (11 bits + valid per entry), which is what makes the SQ expensive.
func (s *Snapshot) StorageBits() int {
	return s.lp.StorageBits() + s.entries*s.lp.Entries()*12 + 224*8
}
