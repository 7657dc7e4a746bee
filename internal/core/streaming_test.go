package core

import (
	"errors"
	"io"
	"testing"

	"localbp/internal/bpu"
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/repair"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// chunkedSource serves a resident slice through the streaming interface in
// small pieces, hiding the Slice accessor so NewStream cannot short-circuit
// to the resident-program fast path.
type chunkedSource struct {
	tr   []trace.Inst
	pos  int
	max  int // largest Next fill, to stress partial reads
	fail int // fail after this many instructions (0 = never)
}

func (s *chunkedSource) Next(dst []trace.Inst) (int, error) {
	if s.fail > 0 && s.pos >= s.fail {
		return 0, errors.New("injected source failure")
	}
	if s.pos >= len(s.tr) {
		return 0, io.EOF
	}
	if len(dst) > s.max {
		dst = dst[:s.max]
	}
	n := copy(dst, s.tr[s.pos:])
	s.pos += n
	return n, nil
}

func (s *chunkedSource) Len() int { return len(s.tr) }

// TestStreamBitIdentical pins the sliding-window contract: a streamed run
// must produce statistics bit-identical to the resident-program run, across
// enough instructions to force many window refills and through schemes that
// rewind fetch on mispredicts.
func TestStreamBitIdentical(t *testing.T) {
	schemes := []struct {
		name string
		mk   func() repair.Scheme
	}{
		{"baseline", func() repair.Scheme { return nil }},
		{"forward-coalesce", func() repair.Scheme {
			return repair.NewForwardWalk(loop.Loop128(), 32, repair.Ports{CkptRead: 4, BHTWrite: 2}, true)
		}},
	}
	ws := workloads.QuickSuite()[:3]
	const insts = 100_000 // > 3x streamChunk: multiple refills per run
	for _, w := range ws {
		tr := w.Generate(insts)
		for _, sc := range schemes {
			cfg := DefaultConfig()
			resident := New(cfg, bpu.NewUnit(tage.KB8(), sc.mk()), tr)
			wantSt, err := simulate(resident)
			if err != nil {
				t.Fatalf("%s/%s resident: %v", w.Name, sc.name, err)
			}
			streamed, err := NewStream(cfg, bpu.NewUnit(tage.KB8(), sc.mk()),
				&chunkedSource{tr: tr, max: 1009})
			if err != nil {
				t.Fatalf("%s/%s NewStream: %v", w.Name, sc.name, err)
			}
			if len(streamed.prog) != 0 || cap(streamed.prog) >= insts {
				t.Fatalf("streamed core holds a resident-scale buffer (cap %d)", cap(streamed.prog))
			}
			gotSt, err := simulate(streamed)
			if err != nil {
				t.Fatalf("%s/%s streamed: %v", w.Name, sc.name, err)
			}
			if gotSt != wantSt {
				t.Errorf("%s/%s: stats diverge\n  stream:   %+v\n  resident: %+v", w.Name, sc.name, gotSt, wantSt)
			}
		}
	}
}

// TestStreamSliceFastPath checks NewStream short-circuits an in-memory
// source to the resident-program core.
func TestStreamSliceFastPath(t *testing.T) {
	tr := workloads.QuickSuite()[0].Generate(5000)
	c, err := NewStream(DefaultConfig(), bpu.NewUnit(tage.KB8(), nil), trace.NewSliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if c.src != nil || len(c.prog) != len(tr) {
		t.Fatal("slice-backed source did not take the resident fast path")
	}
	if _, err := simulate(c); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSourceFailure checks a mid-run source failure aborts with a
// structured SourceError instead of hanging or panicking.
func TestStreamSourceFailure(t *testing.T) {
	tr := workloads.QuickSuite()[0].Generate(100_000)
	c, err := NewStream(DefaultConfig(), bpu.NewUnit(tage.KB8(), nil),
		&chunkedSource{tr: tr, max: 4096, fail: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = simulate(c)
	if !errors.Is(err, ErrTraceSource) {
		t.Fatalf("got %v, want ErrTraceSource", err)
	}
	var se *SourceError
	if !errors.As(err, &se) || se.Pos == 0 {
		t.Fatalf("SourceError missing position: %v", err)
	}
}

// TestStreamShortStream checks a source that under-delivers its declared Len
// is reported, not silently accepted.
func TestStreamShortStream(t *testing.T) {
	tr := workloads.QuickSuite()[0].Generate(80_000)
	src := &chunkedSource{tr: tr[:50_000], max: 4096}
	lying := &lyingLenSource{chunkedSource: src, claim: 80_000}
	c, err := NewStream(DefaultConfig(), bpu.NewUnit(tage.KB8(), nil), lying)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulate(c); !errors.Is(err, ErrTraceSource) {
		t.Fatalf("got %v, want ErrTraceSource", err)
	}
}

type lyingLenSource struct {
	*chunkedSource
	claim int
}

func (s *lyingLenSource) Len() int { return s.claim }
