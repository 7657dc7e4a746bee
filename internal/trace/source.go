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
// Implementations: SliceSource (in-memory) and the two file sources
// OpenSource returns, the LBP2 reader and the ChampSim-style external
// adapter.
type Source interface {
	// Next fills dst with the next instructions of the stream and returns
	// how many were written. It returns n < len(dst) only near the end of
	// the stream or just before an error; a drained source returns
	// (0, io.EOF). n > 0 with a nil error is the normal case;
	// implementations never return both n > 0 and a non-nil error.
	Next(dst []Inst) (n int, err error)
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

func (l *limitSource) Len() int { return l.n }

// CloseSource closes src when it holds an open file; sources without
// resources (SliceSource) are a no-op.
func CloseSource(src Source) error {
	if l, ok := src.(*limitSource); ok {
		src = l.src
	}
	if c, ok := src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// SummarizeSource computes a stream's aggregate statistics by draining src
// through a fixed-size chunk buffer, so arbitrarily long on-disk traces are
// characterized at fixed memory (modulo the unique-PC sets).
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

// SourceSlice returns the backing slice of an in-memory source for zero-copy
// fast paths, or (nil, false) for true streaming sources.
func SourceSlice(src Source) ([]Inst, bool) {
	if s, ok := src.(interface{ Slice() []Inst }); ok {
		return s.Slice(), true
	}
	return nil, false
}

// checkCount guards source constructors against absurd record counts
// before any allocation is sized from them.
func checkCount(n uint64, what string) (int, error) {
	const maxCount = 1 << 34 // 16 G instructions: far past any real trace
	if n > maxCount {
		return 0, fmt.Errorf("trace: %s: %d records exceeds the %d cap", what, n, uint64(maxCount))
	}
	return int(n), nil
}
