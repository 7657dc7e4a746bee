package core

// resolutionHeap is the pending branch-resolution queue: a binary min-heap
// of resolutions ordered by (done, seq). seq is unique per allocated
// instruction, so the order is total and resolutions pop deterministically,
// oldest first within a cycle. The heap is a typed slice — no boxing through
// an interface — so pushes and pops never allocate once it has grown to the
// in-flight branch population.
type resolutionHeap []resolution

// before orders resolutions by (done, seq).
func (a *resolution) before(b *resolution) bool {
	return a.done < b.done || (a.done == b.done && a.seq < b.seq)
}

// push schedules r.
func (h *resolutionHeap) push(r resolution) {
	q := append(*h, r)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !r.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = r
	*h = q
}

// drain pops every resolution due at or before cycle, in (done, seq) order,
// and calls fn on each. fn receives the heap's own storage for the popped
// entry (the slot just past the shrunken heap), so the call costs no copy
// that could escape; fn must not push (the core resolves branches here and
// only allocation schedules them).
func (h *resolutionHeap) drain(cycle int64, fn func(*resolution)) {
	for q := *h; len(q) > 0 && q[0].done <= cycle; q = *h {
		n := len(q) - 1
		top, last := q[0], q[n]
		// Sift the last entry down from the root over q[:n].
		i := 0
		for {
			k := 2*i + 1
			if k >= n {
				break
			}
			if k+1 < n && q[k+1].before(&q[k]) {
				k++
			}
			if !q[k].before(&last) {
				break
			}
			q[i] = q[k]
			i = k
		}
		q[i] = last
		q[n] = top
		*h = q[:n]
		fn(&q[n])
	}
}

// nextDue returns the earliest pending resolve cycle; false when the heap is
// empty.
func (h resolutionHeap) nextDue() (int64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].done, true
}
