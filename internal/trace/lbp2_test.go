package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// randomTrace builds a trace with the full operand variety: every class,
// regs present/absent, deltas of both signs and mixed magnitudes.
func randomTrace(n int, seed int64) []Inst {
	r := rand.New(rand.NewSource(seed))
	tr := make([]Inst, n)
	pc := uint64(0x400000)
	addr := uint64(0x7fff0000)
	for i := range tr {
		pc += uint64(r.Intn(64)) * 4
		if r.Intn(100) == 0 {
			pc -= uint64(r.Intn(4096)) // backward jumps exercise negative dPC
		}
		in := Inst{PC: pc, Class: Class(r.Intn(int(numClasses)))}
		if r.Intn(4) != 0 {
			in.Dst = uint8(r.Intn(NumRegs))
			in.Src1 = uint8(r.Intn(NumRegs))
			in.Src2 = uint8(r.Intn(NumRegs))
		}
		switch in.Class {
		case ClassBranch:
			in.Taken = r.Intn(2) == 0
			in.Target = pc + uint64(int64(r.Intn(8192)-4096))
		case ClassLoad, ClassStore:
			addr += uint64(int64(r.Intn(512) - 128))
			in.Addr = addr
		}
		tr[i] = in
	}
	return tr
}

// TestLBP2RoundTrip is the core property: encode → decode is the identity,
// across chunk boundaries and partial final chunks.
func TestLBP2RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, DefaultChunkLen, DefaultChunkLen + 1, 3*DefaultChunkLen + 17} {
		tr := randomTrace(n, int64(n)+1)
		var buf bytes.Buffer
		if err := WriteTraceLBP2(&buf, tr); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		got, err := ReadTraceLBP2(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		if len(got) != len(tr) {
			t.Fatalf("n=%d: got %d records", n, len(got))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Fatalf("n=%d: record %d mismatch: got %+v want %+v", n, i, got[i], tr[i])
			}
		}
	}
}

// TestLBP2SmallChunks exercises framing with many tiny chunks.
func TestLBP2SmallChunks(t *testing.T) {
	tr := randomTrace(1000, 42)
	var buf bytes.Buffer
	lw, err := NewLBP2Writer(&buf, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Append in awkward pieces to cross chunk boundaries mid-call.
	for i := 0; i < len(tr); i += 37 {
		end := min(i+37, len(tr))
		if err := lw.Append(tr[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceLBP2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("got %d records, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// writeTempLBP2 writes tr as an LBP2 file with the given chunk length.
func writeTempLBP2(t *testing.T, tr []Inst, chunkLen int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.lbp2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := NewLBP2Writer(f, chunkLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Append(tr); err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// drainSource reads src through odd-sized chunks to stress the copy-out path.
func drainSource(t *testing.T, src Source) []Inst {
	t.Helper()
	var out []Inst
	buf := make([]Inst, 777)
	for {
		n, err := src.Next(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("source: %v", err)
		}
	}
}

// TestOpenSourceBackends checks both LBP2 backends yield identical streams,
// and that Reset replays from the start.
func TestOpenSourceBackends(t *testing.T) {
	tr := randomTrace(10_000, 99)
	lbp2Path := writeTempLBP2(t, tr, 1024)

	for _, tc := range []struct {
		name string
		path string
		mode OpenMode
	}{
		{"lbp2-auto", lbp2Path, OpenAuto},
		{"lbp2-file", lbp2Path, OpenFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := OpenSourceMode(tc.path, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			defer CloseSource(src)
			if src.Len() != len(tr) {
				t.Fatalf("Len = %d, want %d", src.Len(), len(tr))
			}
			got := drainSource(t, src)
			if len(got) != len(tr) {
				t.Fatalf("drained %d records, want %d", len(got), len(tr))
			}
			for i := range tr {
				if got[i] != tr[i] {
					t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], tr[i])
				}
			}
			if err := src.Reset(); err != nil {
				t.Fatal(err)
			}
			again := drainSource(t, src)
			if len(again) != len(tr) || again[0] != tr[0] || again[len(tr)-1] != tr[len(tr)-1] {
				t.Fatal("Reset did not replay the stream")
			}
		})
	}
}

// TestOpenSourceMmap exercises the mapped backend where the platform has one.
func TestOpenSourceMmap(t *testing.T) {
	tr := randomTrace(5000, 5)
	path := writeTempLBP2(t, tr, 512)
	src, err := OpenSourceMode(path, OpenMmap)
	if err == errMmapUnsupported {
		t.Skip("no mmap on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer CloseSource(src)
	got := drainSource(t, src)
	if len(got) != len(tr) {
		t.Fatalf("drained %d records, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestLBP2CorruptionDetected flips one payload byte and expects the chunk CRC
// to catch it on every read path.
func TestLBP2CorruptionDetected(t *testing.T) {
	tr := randomTrace(2000, 11)
	var buf bytes.Buffer
	if err := WriteTraceLBP2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	corrupt := bytes.Clone(data)
	corrupt[lbp2HeaderSize+lbp2ChunkHdr+100] ^= 0x40 // inside first chunk payload
	if _, err := ReadTraceLBP2(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("sequential reader accepted corrupt payload")
	}
	path := filepath.Join(t.TempDir(), "corrupt.lbp2")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenSourceMode(path, OpenFile)
	if err != nil {
		t.Fatal(err) // layout (index/footer) is intact; the chunk read must fail
	}
	defer CloseSource(src)
	var chunk [256]Inst
	for {
		_, err := src.Next(chunk[:])
		if err == io.EOF {
			t.Fatal("file source accepted corrupt payload")
		}
		if err != nil {
			break // CRC mismatch surfaced
		}
	}
}

// TestLBP2TruncationDetected drops the tail and expects the footer check to
// reject the file.
func TestLBP2TruncationDetected(t *testing.T) {
	tr := randomTrace(2000, 13)
	path := writeTempLBP2(t, tr, 256)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSource(path); err == nil {
		t.Fatal("opened a truncated LBP2 file")
	}
}

// TestLBP2Stat checks the -stat plumbing and the headline compression claim
// for a representative stream (the suite-level ≥2x assertion lives in the
// workloads tests where real generated traces are available).
func TestLBP2Stat(t *testing.T) {
	tr := randomTrace(20_000, 17)
	path := writeTempLBP2(t, tr, 0)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := StatLBP2(f, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(tr) {
		t.Fatalf("stat records = %d, want %d", stats.Records, len(tr))
	}
	if bpi := stats.BytesPerInst(); bpi >= RawRecordBytes/2 {
		t.Fatalf("LBP2 %.2f B/inst is not ≥2x smaller than the %d-B raw record", bpi, RawRecordBytes)
	}
}

// TestChampSimAdapter round-trips a hand-built external trace through the
// adapter, checking class mapping and taken-branch target lookahead.
func TestChampSimAdapter(t *testing.T) {
	put := func(b []byte, ip uint64, isBranch, taken byte, dst, src1, src2 uint8, dstMem, srcMem uint64) {
		binary.LittleEndian.PutUint64(b[0:], ip)
		b[8], b[9] = isBranch, taken
		b[10], b[12], b[13] = dst, src1, src2
		binary.LittleEndian.PutUint64(b[16:], dstMem)
		binary.LittleEndian.PutUint64(b[32:], srcMem)
	}
	raw := make([]byte, 4*champsimRecSize)
	put(raw[0:], 0x1000, 0, 0, 5, 6, 7, 0, 0)              // ALU
	put(raw[64:], 0x1004, 1, 1, 0, 0, 0, 0, 0)             // taken branch -> target 0x2000
	put(raw[128:], 0x2000, 0, 0, 9, 10, 0, 0, 0xdeadbeef)  // load
	put(raw[192:], 0x2004, 0, 0, 0, 200, 0, 0xcafebabe, 0) // store; src reg 200 wraps mod 64
	path := filepath.Join(t.TempDir(), "ext.champsim")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseSource(src)
	got := drainSource(t, src)
	want := []Inst{
		{PC: 0x1000, Class: ClassALU, Dst: 5, Src1: 6, Src2: 7},
		{PC: 0x1004, Class: ClassBranch, Taken: true, Target: 0x2000},
		{PC: 0x2000, Class: ClassLoad, Addr: 0xdeadbeef, Dst: 9, Src1: 10},
		{PC: 0x2004, Class: ClassStore, Addr: 0xcafebabe, Src1: 200 % NumRegs},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if err := Validate(got); err != nil {
		t.Fatalf("adapter output fails Validate: %v", err)
	}
}

// TestSliceSourceAndLimit pins the in-memory source semantics the fast paths
// rely on.
func TestSliceSourceAndLimit(t *testing.T) {
	tr := randomTrace(100, 3)
	src := NewSliceSource(tr)
	if got := drainSource(t, src); len(got) != 100 {
		t.Fatalf("drained %d", len(got))
	}
	if _, err := src.Next(make([]Inst, 1)); err != io.EOF {
		t.Fatalf("drained source returned %v, want EOF", err)
	}
	lim := Limit(NewSliceSource(tr), 10)
	if lim.Len() != 10 {
		t.Fatalf("limit Len = %d", lim.Len())
	}
	if got := drainSource(t, lim); len(got) != 10 {
		t.Fatalf("limited drain = %d", len(got))
	}
	if s, ok := SourceSlice(lim); !ok || len(s) != 10 {
		t.Fatal("limited slice source lost its zero-copy accessor")
	}
	if full := Limit(src, 500); full != Source(src) {
		t.Fatal("Limit beyond Len should return the source unchanged")
	}
}

// FuzzReadTraceLBP2 hardens the LBP2 decoder: arbitrary bytes must produce an
// error or a valid trace, never a panic or an out-of-range Class.
func FuzzReadTraceLBP2(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteTraceLBP2(&seed, randomTrace(100, 1))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not a trace"))
	trunc := bytes.Clone(seed.Bytes())
	f.Add(trunc[:len(trunc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTraceLBP2(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, in := range tr {
			if in.Class >= numClasses {
				t.Fatalf("decoder produced invalid class %d", in.Class)
			}
			if in.Dst >= NumRegs || in.Src1 >= NumRegs || in.Src2 >= NumRegs {
				t.Fatalf("decoder produced out-of-range register %+v", in)
			}
		}
	})
}

// FuzzChampSim hardens the ChampSim adapter: arbitrary bytes written as a
// .champsim file and opened through OpenSource must yield an error naming
// the file or a source of size/64 records, each with an in-range class and
// registers — never a panic.
func FuzzChampSim(f *testing.F) {
	seed := make([]byte, 2*champsimRecSize)
	binary.LittleEndian.PutUint64(seed[0:], 0x1000)
	seed[8], seed[9] = 1, 1 // taken branch; its target is the next ip
	binary.LittleEndian.PutUint64(seed[champsimRecSize:], 0x2000)
	binary.LittleEndian.PutUint64(seed[champsimRecSize+32:], 0xdeadbeef) // load
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:champsimRecSize+1]) // torn final record
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 && binary.LittleEndian.Uint32(data) == lbp2Magic {
			t.Skip("LBP2 magic sniffs as LBP2, which FuzzReadTraceLBP2 covers")
		}
		path := filepath.Join(t.TempDir(), "fuzz.champsim")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenSource(path)
		if err != nil {
			if !strings.Contains(err.Error(), "fuzz.champsim") {
				t.Fatalf("error does not name the file: %v", err)
			}
			return
		}
		defer CloseSource(src)
		if want := len(data) / champsimRecSize; src.Len() != want {
			t.Fatalf("Len = %d for %d bytes, want %d", src.Len(), len(data), want)
		}
		got := drainSource(t, src)
		if len(got) != src.Len() {
			t.Fatalf("drained %d records, Len promised %d", len(got), src.Len())
		}
		for _, in := range got {
			if in.Class >= numClasses {
				t.Fatalf("adapter produced invalid class %d", in.Class)
			}
			if in.Dst >= NumRegs || in.Src1 >= NumRegs || in.Src2 >= NumRegs {
				t.Fatalf("adapter produced out-of-range register %+v", in)
			}
		}
	})
}
