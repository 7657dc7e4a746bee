package loop

import "fmt"

// bhtEntry is one BHT way: the speculative state of one branch PC. CBPw-Loop
// keeps its current iteration count in count and the count's direction in
// dir; YehPatt keeps its local history pattern in count and leaves dir
// false. alloc marks the tag as meaningful; valid marks the *count* as
// trustworthy for predictions (the split-BHT and limited-PC designs
// invalidate counts without releasing the entry, and a later direction flip
// re-validates it — paper §3.2/§3.3).
type bhtEntry struct {
	tag   uint16
	count uint16
	dir   bool
	alloc bool
	valid bool
	lru   uint8
}

// pcHash folds PC bits so that regularly-strided branch addresses spread
// across sets, as hardware index/tag hash functions do.
func pcHash(pc uint64) uint64 {
	v := pc >> 2
	return v ^ (v >> 5) ^ (v >> 11) ^ (v >> 17)
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// geometry indexes a set-associative table (a BHT or a PT) by pcHash.
type geometry struct {
	ways     int
	setMask  uint64
	tagShift uint
}

// newGeometry panics unless entries splits into a power-of-two number of
// sets of ways entries each.
func newGeometry(entries, ways int) geometry {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("loop: bad table geometry %d/%d", entries, ways))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("loop: table set count %d is not a power of two", sets))
	}
	return geometry{ways: ways, setMask: uint64(sets - 1), tagShift: uint(log2(sets))}
}

func (g geometry) set(pc uint64) int { return int(pcHash(pc) & g.setMask) }
func (g geometry) tagOf(pc uint64) uint16 {
	return uint16((pcHash(pc)>>g.tagShift)^(pcHash(pc)>>13)) & 0xff
}

// bht is the speculative Branch History Table both local predictors embed:
// the ways, their LRU order, the repair bits and the undo journal, plus
// every LocalPredictor method that treats an entry's state as opaque (paper
// §1: "the difference is only in the state saved and restored"). The
// embedding predictor owns the rules that predict from and advance that
// state. Reads index entries directly; every write goes through edit.
type bht struct {
	geometry
	entries []bhtEntry

	// Forward-walk repair bits: an entry's bit is "set" (awaiting its
	// first repair write) when its stamp differs from the current
	// generation, letting RepairStart mark every entry in O(1).
	repairGen   uint32
	repairStamp []uint32

	// Undo journal, on from the first Mark: each entry write first
	// records the entry's old value. journal[0] sits at absolute
	// position jbase; positions below jlo are released. seen stamps the
	// entries one unwind has visited.
	journaling bool
	journal    []undoRec
	jbase, jlo int64
	seen       []uint32
	seenGen    uint32
}

// undoRec is one journal record: an entry's index and its value before a
// write.
type undoRec struct {
	idx int32
	old bhtEntry
}

// newBHT builds an empty table whose ways hold the LRU ranks 0..ways-1 in
// every set.
func newBHT(entries, ways int) bht {
	b := bht{
		geometry:    newGeometry(entries, ways),
		entries:     make([]bhtEntry, entries),
		repairGen:   1,
		repairStamp: make([]uint32, entries),
	}
	for i := range b.entries {
		b.entries[i].lru = uint8(i % ways)
	}
	return b
}

// lookup returns the index of pc's entry, or -1. Invalidated entries keep
// their tag so a direction flip can re-synchronize them, so the match
// requires alloc, not valid.
func (b *bht) lookup(pc uint64) int {
	base, tag := b.set(pc)*b.ways, b.tagOf(pc)
	for w := 0; w < b.ways; w++ {
		e := &b.entries[base+w]
		if e.alloc && e.tag == tag {
			return base + w
		}
	}
	return -1
}

// victim returns the index of pc's set's first free way, or else of its
// least-recently-used way.
func (b *bht) victim(pc uint64) int {
	base := b.set(pc) * b.ways
	v := base
	for w := 0; w < b.ways; w++ {
		e := &b.entries[base+w]
		if !e.alloc {
			return base + w
		}
		if e.lru > b.entries[v].lru {
			v = base + w
		}
	}
	return v
}

// edit returns entry i for writing, journaling its old value first while
// journaling is on.
func (b *bht) edit(i int) *bhtEntry {
	if b.journaling {
		b.journal = append(b.journal, undoRec{idx: int32(i), old: b.entries[i]})
	}
	return &b.entries[i]
}

// touchLRU promotes the entry at idx to most-recently-used within its set.
// An entry already at rank 0 changes nothing.
func (b *bht) touchLRU(idx int) {
	old := b.entries[idx].lru
	if old == 0 {
		return
	}
	base := idx / b.ways * b.ways
	for w := base; w < base+b.ways; w++ {
		if b.entries[w].lru < old {
			b.edit(w).lru++
		}
	}
	b.edit(idx).lru = 0
}

// restore writes st into pc's entry and clears its repair bit. If pc was
// evicted since st was checkpointed, the set's victim is re-allocated for
// it, keeping the victim's LRU rank, so the repair write is not silently
// dropped; realloc reports that case.
func (b *bht) restore(pc uint64, st State) (i int, realloc bool) {
	i = b.lookup(pc)
	if i < 0 {
		i, realloc = b.victim(pc), true
	}
	e := b.edit(i)
	if realloc {
		*e = bhtEntry{tag: b.tagOf(pc), alloc: true, lru: e.lru}
	}
	e.count, e.dir, e.valid = st.Count, st.Dir, st.Valid
	b.repairStamp[i] = b.repairGen
	return i, realloc
}

// Entries returns the BHT capacity.
func (b *bht) Entries() int { return len(b.entries) }

// LookupState returns the current speculative BHT state of pc; ok is false
// when the PC is not tracked.
func (b *bht) LookupState(pc uint64) (State, bool) {
	i := b.lookup(pc)
	if i < 0 {
		return State{}, false
	}
	e := &b.entries[i]
	return State{Count: e.count, Dir: e.dir, Valid: e.valid}, true
}

// Invalidate marks pc's count untrustworthy without releasing the entry
// (limited-PC "mark invalid" variant and split-BHT repair window, §3.2/§3.3).
func (b *bht) Invalidate(pc uint64) {
	if i := b.lookup(pc); i >= 0 && b.entries[i].valid {
		b.edit(i).valid = false
	}
}

// InvalidateAll marks every BHT count untrustworthy.
func (b *bht) InvalidateAll() {
	for i := range b.entries {
		if b.entries[i].valid {
			b.edit(i).valid = false
		}
	}
}

// --- repair-bit machinery (forward walk, §3.1) ---

// RepairStart sets the repair bit on every BHT entry (O(1) via generation).
func (b *bht) RepairStart() { b.repairGen++ }

// RepairBitSet reports whether pc's entry still has its repair bit set,
// i.e. has not yet been written during the current repair.
func (b *bht) RepairBitSet(pc uint64) bool {
	i := b.lookup(pc)
	if i < 0 {
		return true // an untracked PC has never been repaired this walk
	}
	return b.repairStamp[i] != b.repairGen
}

// --- undo journal (perfect repair, snapshot queue) ---

// Mark returns the journal's current position and turns journaling on. A
// later Rollback to the mark restores every entry, LRU ranks included, to
// its value now, as a whole-table checkpoint would.
func (b *bht) Mark() int64 {
	if !b.journaling {
		b.journaling = true
		b.seen = make([]uint32, len(b.entries))
	}
	return b.jbase + int64(len(b.journal))
}

// Rollback undoes every entry write since mark m and truncates the journal
// to m, so younger marks die. It returns the number of entries whose
// predictive state changed (the repair-write count of Figure 8; LRU ranks
// are restored but not counted), and those entries take a repair stamp.
func (b *bht) Rollback(m int64) int { return b.unwind(m, true) }

// DiffSince counts the entries whose predictive state differs from their
// value at mark m, without modifying anything.
func (b *bht) DiffSince(m int64) int { return b.unwind(m, false) }

// Release drops the records older than m: no later Rollback may reach
// past it. The dead prefix is compacted away only once it is at least as
// long as the live records, so each record is copied O(1) times amortized.
func (b *bht) Release(m int64) {
	b.checkMark(m)
	b.jlo = m
	if dead := int(m - b.jbase); dead >= len(b.journal)-dead {
		b.journal = b.journal[:copy(b.journal, b.journal[dead:])]
		b.jbase = m
	}
}

// checkMark panics unless m lies in the live journal: a released or
// rolled-past mark is a programming error, not a recoverable condition.
func (b *bht) checkMark(m int64) {
	if end := b.jbase + int64(len(b.journal)); m < b.jlo || m > end {
		panic(fmt.Sprintf("loop: BHT mark %d outside the live journal [%d, %d]", m, b.jlo, end))
	}
}

// unwind scans the records since m oldest first. An entry's first record
// holds its value at the mark, so later records of the same entry are
// skipped. With undo set it writes those values back, stamps the changed
// entries and truncates the journal to m.
func (b *bht) unwind(m int64, undo bool) int {
	b.checkMark(m)
	recs := b.journal[m-b.jbase:]
	if b.seenGen++; b.seenGen == 0 {
		clear(b.seen)
		b.seenGen = 1
	}
	changed := 0
	for _, r := range recs {
		if b.seen[r.idx] == b.seenGen {
			continue
		}
		b.seen[r.idx] = b.seenGen
		e := &b.entries[r.idx]
		if differs(e, &r.old) {
			changed++
			if undo {
				b.repairStamp[r.idx] = b.repairGen
			}
		}
		if undo {
			*e = r.old
		}
	}
	if undo {
		b.journal = b.journal[:m-b.jbase]
	}
	return changed
}

// differs ignores LRU: only predictive state counts as a repair write.
func differs(a, b *bhtEntry) bool {
	return a.count != b.count || a.dir != b.dir || a.valid != b.valid ||
		a.alloc != b.alloc || a.tag != b.tag
}
