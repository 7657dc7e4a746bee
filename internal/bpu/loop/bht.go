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
// the ways, their LRU order and the repair bits, plus every LocalPredictor
// method that treats an entry's state as opaque (paper §1: "the difference
// is only in the state saved and restored"). The embedding predictor owns
// the rules that predict from and advance that state.
type bht struct {
	geometry
	entries []bhtEntry

	// Forward-walk repair bits: an entry's bit is "set" (awaiting its
	// first repair write) when its stamp differs from the current
	// generation, letting RepairStart mark every entry in O(1).
	repairGen   uint32
	repairStamp []uint32
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

// touchLRU promotes the entry at idx to most-recently-used within its set.
func (b *bht) touchLRU(idx int) {
	base := idx / b.ways * b.ways
	old := b.entries[idx].lru
	for w := 0; w < b.ways; w++ {
		if e := &b.entries[base+w]; e.lru < old {
			e.lru++
		}
	}
	b.entries[idx].lru = 0
}

// restore writes st into pc's entry and clears its repair bit. If pc was
// evicted since st was checkpointed, the set's victim is re-allocated for
// it, keeping the victim's LRU rank, so the repair write is not silently
// dropped; realloc reports that case.
func (b *bht) restore(pc uint64, st State) (i int, realloc bool) {
	i = b.lookup(pc)
	if i < 0 {
		i, realloc = b.victim(pc), true
		b.entries[i] = bhtEntry{tag: b.tagOf(pc), alloc: true, lru: b.entries[i].lru}
	}
	e := &b.entries[i]
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
	if i := b.lookup(pc); i >= 0 {
		b.entries[i].valid = false
	}
}

// InvalidateAll marks every BHT count untrustworthy.
func (b *bht) InvalidateAll() {
	for i := range b.entries {
		b.entries[i].valid = false
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

// FullState is the complete image of one BHT entry, including the tag and
// allocation bit, for whole-table snapshots (perfect repair and the snapshot
// queue). OBQ-style checkpoints use the narrower State: they restore a known
// PC into a live entry, while a whole-table restore must also undo
// allocations and evictions that happened after the snapshot.
type FullState struct {
	Tag   uint16
	Count uint16
	LRU   uint8
	Dir   bool
	Alloc bool
	Valid bool
}

// SnapshotBHT copies the full speculative BHT state into dst (allocating if
// needed) and returns it. Indexes match internal entry order.
func (b *bht) SnapshotBHT(dst []FullState) []FullState {
	if cap(dst) < len(b.entries) {
		dst = make([]FullState, len(b.entries))
	}
	dst = dst[:len(b.entries)]
	for i := range b.entries {
		e := &b.entries[i]
		dst[i] = FullState{Tag: e.tag, Count: e.count, LRU: e.lru, Dir: e.dir, Alloc: e.alloc, Valid: e.valid}
	}
	return dst
}

// RestoreBHT writes a full snapshot back, returning the number of entries
// whose predictive state actually changed (the repair-write count of
// Figure 8).
func (b *bht) RestoreBHT(snap []FullState) int {
	if len(snap) != len(b.entries) {
		panic("loop: snapshot geometry mismatch")
	}
	changed := 0
	for i := range b.entries {
		e := &b.entries[i]
		if fullDiffers(e, &snap[i]) {
			changed++
			b.repairStamp[i] = b.repairGen
		}
		*e = bhtEntry{tag: snap[i].Tag, count: snap[i].Count, lru: snap[i].LRU,
			dir: snap[i].Dir, alloc: snap[i].Alloc, valid: snap[i].Valid}
	}
	return changed
}

// DiffBHT counts entries whose predictive state differs from snap without
// modifying anything.
func (b *bht) DiffBHT(snap []FullState) int {
	if len(snap) != len(b.entries) {
		panic("loop: snapshot geometry mismatch")
	}
	n := 0
	for i := range b.entries {
		if fullDiffers(&b.entries[i], &snap[i]) {
			n++
		}
	}
	return n
}

// fullDiffers ignores LRU: only predictive state counts as a repair write.
func fullDiffers(e *bhtEntry, s *FullState) bool {
	return e.count != s.Count || e.dir != s.Dir || e.valid != s.Valid ||
		e.alloc != s.Alloc || e.tag != s.Tag
}
