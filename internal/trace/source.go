package trace

import (
	"fmt"
	"io"
)

// Source is the canonical streaming ingestion contract: a sequential reader
// of a dynamic instruction stream that fills caller-owned chunks, so a
// multi-million-instruction trace replays at fixed memory. A Source is
// stateful and single-consumer; callers needing concurrent replays open one
// source each.
//
// Implementations: SliceSource (in-memory), the LBP2 file and mmap
// sources returned by OpenSource, and the ChampSim-style external adapter.
type Source interface {
	// Next fills dst with the next instructions of the stream and returns
	// how many were written. It returns n < len(dst) only near the end of
	// the stream; a drained source returns (0, io.EOF). n > 0 with a nil
	// error is the normal case; implementations never return both n > 0
	// and a non-nil error.
	Next(dst []Inst) (n int, err error)
	// Reset rewinds the source to the start of the stream.
	Reset() error
	// Len returns the total instruction count of the stream.
	Len() int
}

// SliceSource adapts an in-memory instruction slice to the Source contract.
// Its Slice accessor lets zero-copy consumers (the core's slice fast path,
// the golden-model oracle) bypass the chunked interface entirely.
type SliceSource struct {
	tr  []Inst
	pos int
}

// NewSliceSource returns a source over tr. The slice is aliased, not copied.
func NewSliceSource(tr []Inst) *SliceSource { return &SliceSource{tr: tr} }

// Next implements Source.
func (s *SliceSource) Next(dst []Inst) (int, error) {
	if s.pos >= len(s.tr) {
		return 0, io.EOF
	}
	n := copy(dst, s.tr[s.pos:])
	s.pos += n
	return n, nil
}

// Reset implements Source.
func (s *SliceSource) Reset() error { s.pos = 0; return nil }

// Len implements Source.
func (s *SliceSource) Len() int { return len(s.tr) }

// Slice returns the backing stream. Consumers that can hold the whole trace
// use it to skip the copy-out path (the returned slice must be treated as
// read-only).
func (s *SliceSource) Slice() []Inst { return s.tr }

// limitSource caps a source at n instructions.
type limitSource struct {
	src  Source
	n    int
	read int
}

// Limit returns a source that yields at most n instructions of src. n <= 0
// or n >= src.Len() returns src unchanged.
func Limit(src Source, n int) Source {
	if n <= 0 || n >= src.Len() {
		return src
	}
	if ss, ok := src.(*SliceSource); ok {
		return NewSliceSource(ss.Slice()[:n])
	}
	return &limitSource{src: src, n: n}
}

func (l *limitSource) Next(dst []Inst) (int, error) {
	left := l.n - l.read
	if left <= 0 {
		return 0, io.EOF
	}
	if len(dst) > left {
		dst = dst[:left]
	}
	n, err := l.src.Next(dst)
	l.read += n
	return n, err
}

func (l *limitSource) Reset() error {
	l.read = 0
	return l.src.Reset()
}

func (l *limitSource) Len() int { return l.n }

// CloseSource closes src when it holds an open file or mapping; sources
// without resources (SliceSource) are a no-op.
func CloseSource(src Source) error {
	if l, ok := src.(*limitSource); ok {
		src = l.src
	}
	if c, ok := src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// ReadAll drains src into memory (for tools and the golden-model oracle;
// streaming consumers use Next directly).
func ReadAll(src Source) ([]Inst, error) {
	if ss, ok := src.(*SliceSource); ok {
		out := make([]Inst, len(ss.Slice()))
		copy(out, ss.Slice())
		return out, nil
	}
	out := make([]Inst, 0, src.Len())
	var chunk [4096]Inst
	for {
		n, err := src.Next(chunk[:])
		out = append(out, chunk[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// SummarizeSource computes the same aggregate statistics as Summarize by
// draining src through a fixed-size chunk buffer, so arbitrarily long on-disk
// traces can be characterized at fixed memory (modulo the unique-PC sets).
func SummarizeSource(src Source) (Stats, error) {
	var s Stats
	pcs := make(map[uint64]struct{})
	brpcs := make(map[uint64]struct{})
	var chunk [4096]Inst
	for {
		n, err := src.Next(chunk[:])
		for _, in := range chunk[:n] {
			s.Insts++
			pcs[in.PC] = struct{}{}
			switch in.Class {
			case ClassBranch:
				s.Branches++
				if in.Taken {
					s.Taken++
				}
				brpcs[in.PC] = struct{}{}
			case ClassLoad:
				s.Loads++
			case ClassStore:
				s.Stores++
			}
		}
		if err == io.EOF {
			s.UniquePCs = len(pcs)
			s.UniqueBrPC = len(brpcs)
			return s, nil
		}
		if err != nil {
			return Stats{}, err
		}
	}
}

// sourceSlice returns the backing slice of an in-memory source, when one
// exists (used for zero-copy fast paths).
func sourceSlice(src Source) ([]Inst, bool) {
	if s, ok := src.(interface{ Slice() []Inst }); ok {
		return s.Slice(), true
	}
	return nil, false
}

// SourceSlice exposes sourceSlice to other packages: the backing slice of an
// in-memory source, or (nil, false) for true streaming sources.
func SourceSlice(src Source) ([]Inst, bool) { return sourceSlice(src) }

// mustLen guards source constructors against absurd record counts before any
// allocation is sized from them.
func checkCount(n uint64, what string) (int, error) {
	const maxRecords = 1 << 34 // 16 G instructions: far past any real trace
	if n > maxRecords {
		return 0, fmt.Errorf("trace: %s: %d records exceeds the %d cap", what, n, uint64(maxRecords))
	}
	return int(n), nil
}
