// Package obs is the simulator's observability layer: a zero-allocation
// counter/histogram registry the subsystems (core, mem, obq, repair) register
// pull sources into, CPI-stack cycle accounting that attributes every core cycle to
// exactly one bottleneck bucket, and an opt-in structured event tracer backed
// by a fixed ring buffer.
//
// Design rules (DESIGN.md §11):
//
//   - Disabled observability costs at most one nil-check branch per hook
//     site and zero allocations. Every obs pointer in a hot structure is nil
//     by default; nothing in this package is reached unless a caller opts in.
//   - Counters are pull-based: subsystems keep their native uint64 statistics
//     (already free) and register an emitter function; the registry reads
//     them only at Snapshot time. Histograms and the tracer are push-based
//     but allocation-free after construction.
//   - One registry/CPI-stack/tracer instance belongs to exactly one
//     simulation run (one goroutine). Cross-run aggregation happens outside,
//     after the run completes, which is what keeps the parallel sweep Runner
//     race-clean without hot-path atomics.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Histogram is a fixed-bucket histogram: bounds are inclusive upper bounds
// with an implicit +Inf bucket at the end. Observe is allocation-free (a
// linear scan over a handful of buckets).
type Histogram struct {
	name   string
	bounds []int64
	counts []uint64
	sum    int64
	n      uint64
	max    int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Count returns the total number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the mean sample value (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest observed sample.
func (h *Histogram) Max() int64 { return h.max }

// Buckets calls fn for each bucket with its inclusive upper bound (the last
// call has bound -1, meaning +Inf) and count.
func (h *Histogram) Buckets(fn func(upper int64, count uint64)) {
	for i, c := range h.counts {
		if i < len(h.bounds) {
			fn(h.bounds[i], c)
		} else {
			fn(-1, c)
		}
	}
}

// String renders a compact one-line summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d mean=%.1f max=%d [", h.name, h.n, h.Mean(), h.max)
	for i, c := range h.counts {
		if i > 0 {
			b.WriteByte(' ')
		}
		if i < len(h.bounds) {
			fmt.Fprintf(&b, "≤%d:%d", h.bounds[i], c)
		} else {
			fmt.Fprintf(&b, ">:%d", c)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// source is one pull-based counter emitter.
type source struct {
	prefix string
	fn     func(emit func(name string, v uint64))
}

// Registry is the per-run counter/histogram namespace. Registration and
// snapshotting take a mutex; observing into a *Histogram does not (one run
// = one goroutine owns the hot path).
type Registry struct {
	mu      sync.Mutex
	hists   map[string]*Histogram
	horder  []string
	sources []source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: map[string]*Histogram{}}
}

// Histogram finds or creates the named histogram with the given bucket upper
// bounds (ascending). Bounds are ignored when the name already exists.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, bounds: b, counts: make([]uint64, len(b)+1)}
	r.hists[name] = h
	r.horder = append(r.horder, name)
	return h
}

// AddSource registers a pull-based counter emitter. At Snapshot time fn is
// invoked and every emitted name is prefixed with "prefix." — subsystems keep
// their native statistics and pay nothing until a snapshot is taken.
func (r *Registry) AddSource(prefix string, fn func(emit func(name string, v uint64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, source{prefix: prefix, fn: fn})
}

// Snapshot materializes every source-emitted counter into a fresh map. Safe
// to call from another goroutine only after the owning run has finished.
func (r *Registry) Snapshot() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, 4*len(r.sources))
	for _, s := range r.sources {
		s.fn(func(name string, v uint64) { out[s.prefix+"."+name] = v })
	}
	return out
}

// Histograms returns the registered histograms in registration order.
func (r *Registry) Histograms() []*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Histogram, 0, len(r.horder))
	for _, name := range r.horder {
		out = append(out, r.hists[name])
	}
	return out
}

// FormatSnapshot renders a snapshot as sorted "name value" lines (CLIs).
func FormatSnapshot(snap map[string]uint64) string {
	names := make([]string, 0, len(snap))
	w := 0
	for n := range snap {
		names = append(names, n)
		if len(n) > w {
			w = len(n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-*s %12d\n", w, n, snap[n])
	}
	return b.String()
}

// Hooks bundles the per-run observability instruments. A nil *Hooks (or any
// nil field) means that instrument is disabled; subsystems must check before
// touching it — that check is the entire disabled-path cost.
type Hooks struct {
	Reg    *Registry
	CPI    *CPIStack
	Tracer *Tracer
}

// MemLatencyBuckets are the default bounds for the memory-latency histogram:
// L1/L2/LLC/DRAM-class latencies on the Table 2 hierarchy.
var MemLatencyBuckets = []int64{5, 20, 60, 120, 250}

// RepairBuckets are the default bounds for the repair busy-duration
// histogram (cycles the BHT is unavailable per repair).
var RepairBuckets = []int64{1, 2, 4, 8, 16, 32}
