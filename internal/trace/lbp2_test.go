package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
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

// decodeLBP2 reads an in-memory LBP2 file the way OpenSource reads one from
// disk, through the one reader, and drains it through 4096-instruction Next
// calls. An accepted file must hold the Len() its footer promised.
func decodeLBP2(t testing.TB, data []byte) ([]Inst, error) {
	t.Helper()
	src, err := openLBP2(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	out, err := drain(src, 4096)
	if err != io.EOF {
		return nil, err
	}
	if len(out) != src.Len() {
		t.Fatalf("drained %d records, the footer promised %d", len(out), src.Len())
	}
	return out, nil
}

// drain reads src through size-instruction Next calls until one fails, and
// returns the records delivered and the error that ended the drain (io.EOF
// for a clean one).
func drain(src Source, size int) ([]Inst, error) {
	out := make([]Inst, 0, src.Len())
	dst := make([]Inst, size)
	for {
		n, err := src.Next(dst)
		out = append(out, dst[:n]...)
		if err != nil {
			return out, err
		}
	}
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
		got, err := decodeLBP2(t, buf.Bytes())
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
	got, err := decodeLBP2(t, buf.Bytes())
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

// encodeLBP2 encodes tr as an LBP2 file with the given chunk length.
func encodeLBP2(t *testing.T, tr []Inst, chunkLen int) []byte {
	t.Helper()
	var buf bytes.Buffer
	lw, err := NewLBP2Writer(&buf, chunkLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Append(tr); err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeTempLBP2 writes tr as an LBP2 file with the given chunk length.
func writeTempLBP2(t *testing.T, tr []Inst, chunkLen int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.lbp2")
	if err := os.WriteFile(path, encodeLBP2(t, tr, chunkLen), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// drainSource reads src through odd-sized Next calls, which end mid-chunk.
func drainSource(t *testing.T, src Source) []Inst {
	t.Helper()
	out, err := drain(src, 777)
	if err != io.EOF {
		t.Fatalf("source: %v", err)
	}
	return out
}

// TestOpenSourceBackends opens an LBP2 file two ways — through OpenSource,
// which sniffs the format by magic, and as an open file handed straight to
// the positioned-read reader — and drains each through odd-sized Next calls
// that end mid-chunk and span chunks.
func TestOpenSourceBackends(t *testing.T) {
	tr := randomTrace(10_000, 99)
	lbp2Path := writeTempLBP2(t, tr, 1024)

	for _, tc := range []struct {
		name string
		open func(path string) (Source, error)
	}{
		{"lbp2-auto", OpenSource},
		{"lbp2-file", func(path string) (Source, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			st, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, err
			}
			src, err := openLBP2(f, st.Size())
			if err != nil {
				f.Close()
			}
			return src, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := tc.open(lbp2Path)
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
		})
	}
}

// TestLBP2CorruptionDetected flips one payload byte and expects the chunk CRC
// to catch it, in memory and through a file, before any record of the chunk
// is decoded.
func TestLBP2CorruptionDetected(t *testing.T) {
	corrupt := encodeLBP2(t, randomTrace(2000, 11), 0)
	corrupt[lbp2HeaderSize+lbp2ChunkHdr+100] ^= 0x40 // inside first chunk payload
	const want = "chunk 0 CRC mismatch"
	if _, err := decodeLBP2(t, corrupt); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("in memory: err %v, want %q", err, want)
	}
	path := filepath.Join(t.TempDir(), "corrupt.lbp2")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(path)
	if err != nil {
		t.Fatal(err) // layout (index/footer) is intact; the chunk read must fail
	}
	defer CloseSource(src)
	if n, err := src.Next(make([]Inst, 256)); n != 0 || err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("through a file: %d records, err %v, want none and %q", n, err, want)
	}
}

// TestLBP2BadRecordFailsAtThatRecord sets a reserved flag bit in one record
// of a middle chunk and recomputes the chunk's CRC, so only the decoder can
// catch it. Through every Next size, the reader delivers exactly the records
// before the bad one, then fails with an error naming it, and keeps failing.
func TestLBP2BadRecordFailsAtThatRecord(t *testing.T) {
	const chunkLen, badChunk, badRec = 64, 2, 10
	tr := randomTrace(5*chunkLen, 23)
	data := encodeLBP2(t, tr, chunkLen)
	layout, err := parseLBP2Layout(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	c := layout.index[badChunk]
	payload := data[c.off+lbp2ChunkHdr : c.off+lbp2ChunkHdr+c.payload]
	// Chunks encode independently, so the records before the bad one
	// encode to a prefix of the chunk's payload.
	payload[len(appendChunk(nil, tr[badChunk*chunkLen:][:badRec]))] |= 0x20
	binary.LittleEndian.PutUint32(data[c.off+8:], crc32.Checksum(payload, castagnoli))

	good := badChunk*chunkLen + badRec
	want := fmt.Sprintf("chunk %d record %d: reserved flag bits", badChunk, badRec)
	for _, size := range []int{1, 7, chunkLen, 4096} {
		src, err := openLBP2(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := drain(src, size)
		if !slices.Equal(got, tr[:good]) {
			t.Fatalf("Next(%d): delivered %d records before the error, want the %d good ones", size, len(got), good)
		}
		if err == io.EOF || !strings.Contains(err.Error(), want) {
			t.Fatalf("Next(%d): error %v, want one naming %q", size, err, want)
		}
		if n, again := src.Next(make([]Inst, size)); n != 0 || again == nil {
			t.Fatalf("Next(%d) after the error: %d records, err %v", size, n, again)
		}
	}
}

// TestLBP2TrailingBytesDetected drops one record from the counts of a file's
// last chunk (its header, its index entry and the footer total, with the
// index CRC recomputed), so that record's bytes trail the chunk. The reader
// delivers every record the counts claim, then fails naming the trailing
// bytes.
func TestLBP2TrailingBytesDetected(t *testing.T) {
	tr := randomTrace(100, 31)
	data := encodeLBP2(t, tr, 64)
	layout, err := parseLBP2Layout(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	last := layout.index[len(layout.index)-1]
	claimed := uint32(last.records - 1)
	binary.LittleEndian.PutUint32(data[last.off+4:], claimed)
	foot := data[len(data)-lbp2FooterSize:]
	index := data[len(data)-lbp2FooterSize-len(layout.index)*lbp2IndexEntry : len(data)-lbp2FooterSize]
	binary.LittleEndian.PutUint32(index[len(index)-lbp2IndexEntry+8:], claimed)
	binary.LittleEndian.PutUint64(foot[8:], uint64(len(tr)-1))
	binary.LittleEndian.PutUint32(foot[20:], crc32.Checksum(index, castagnoli))

	src, err := openLBP2(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(src, 4096)
	if !slices.Equal(got, tr[:len(tr)-1]) {
		t.Fatalf("delivered %d records, want the %d claimed", len(got), len(tr)-1)
	}
	lastRec := len(appendChunk(nil, tr[64:])) - len(appendChunk(nil, tr[64:len(tr)-1]))
	want := fmt.Sprintf("chunk 1 has %d trailing bytes", lastRec)
	if err == io.EOF || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// TestLBP2DrainAllocatesUnderOneChunk drains a file of DefaultChunkLen-record
// chunks through 4096-instruction Next calls. Records decode straight into
// the caller's buffer, so open plus the drain allocate the layout and one
// payload buffer, less than one decoded chunk.
func TestLBP2DrainAllocatesUnderOneChunk(t *testing.T) {
	tr := randomTrace(2*DefaultChunkLen+100, 29)
	path := writeTempLBP2(t, tr, DefaultChunkLen)
	dst := make([]Inst, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	src, err := OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	for {
		n, err := src.Next(dst)
		read += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	CloseSource(src)
	runtime.ReadMemStats(&after)
	if read != len(tr) {
		t.Fatalf("drained %d records, want %d", read, len(tr))
	}
	chunk := uint64(DefaultChunkLen) * uint64(unsafe.Sizeof(Inst{}))
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("open and drain of %d records allocated %d B", read, b)
	if b >= chunk {
		t.Fatalf("open and drain allocated %d B, not under one %d-B decoded chunk", b, chunk)
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

	// Limit over a file-backed source: the one way a capped trace file
	// becomes a stream. CloseSource must reach the file through the wrapper.
	file, err := OpenSource(writeTempLBP2(t, tr, 16))
	if err != nil {
		t.Fatal(err)
	}
	flim := Limit(file, 40)
	if flim.Len() != 40 {
		t.Fatalf("limited file Len = %d", flim.Len())
	}
	if got := drainSource(t, flim); len(got) != 40 || got[39] != tr[39] {
		t.Fatalf("limited file drain = %d records", len(got))
	}
	if err := CloseSource(flim); err != nil {
		t.Fatalf("CloseSource through Limit: %v", err)
	}
	if file.(*lbp2Source).ra.(*os.File).Close() == nil { // closing an already closed *os.File errors
		t.Fatal("file still open after CloseSource through Limit")
	}
}

// craftLBP2 returns a 90-byte LBP2 file — one chunk holding one 2-byte
// record — whose header chunkLen, record counts (chunk header, index entry
// and footer total) and chunk payload length are then overwritten with the
// given claims. The index CRC is recomputed, so only the claims are wrong.
func craftLBP2(t testing.TB, chunkLen, records, plen uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	lw, err := NewLBP2Writer(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Append([]Inst{{PC: 4, Class: ClassALU}}); err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 90 {
		t.Fatalf("base file is %d bytes, want 90", len(b))
	}
	binary.LittleEndian.PutUint32(b[8:], chunkLen)
	binary.LittleEndian.PutUint32(b[lbp2HeaderSize:], plen)
	binary.LittleEndian.PutUint32(b[lbp2HeaderSize+4:], records)
	ix := b[len(b)-lbp2FooterSize-lbp2IndexEntry : len(b)-lbp2FooterSize]
	binary.LittleEndian.PutUint32(ix[8:], records)
	foot := b[len(b)-lbp2FooterSize:]
	binary.LittleEndian.PutUint64(foot[8:], uint64(records))
	binary.LittleEndian.PutUint32(foot[20:], crc32.Checksum(ix, castagnoli))
	return b
}

// TestLBP2CraftedClaimsBoundAllocation opens two 90-byte files whose headers
// claim far more than their bytes hold: a 4 Mi chunkLen over one 1-record
// chunk, and a chunk and index entry claiming 4 Mi records in a 100 MB
// payload. The first reads its one record and the second is refused at
// open; open plus one Next allocates under 1 MiB either way, because buffers
// are sized from what the file's bytes can back.
func TestLBP2CraftedClaimsBoundAllocation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		data   []byte
		accept bool
	}{
		{"chunkLen-4Mi", craftLBP2(t, 4<<20, 1, 2), true},
		{"records-4Mi-payload-100MB", craftLBP2(t, 4<<20, 4<<20, 100<<20), false},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".lbp2")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := 0
		src, err := OpenSource(path)
		if err == nil {
			n, err = src.Next(make([]Inst, 16))
			CloseSource(src)
		}
		runtime.ReadMemStats(&after)
		if tc.accept && (err != nil || n != 1) {
			t.Errorf("%s: read %d records (err %v), want the 1 record", tc.name, n, err)
		}
		if !tc.accept && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Errorf("%s: open and one Next allocated %d B, over 1 MiB", tc.name, b)
		}
	}
}

// FuzzLBP2 hardens the production LBP2 read path, the layout parser and the
// resumable chunk decoder: arbitrary bytes must be rejected or decoded, never
// panic or yield an out-of-range class or register, and never allocate more
// than the file's bytes can back.
func FuzzLBP2(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteTraceLBP2(&seed, randomTrace(100, 1))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not a trace"))
	trunc := bytes.Clone(seed.Bytes())
	f.Add(trunc[:len(trunc)/2])
	f.Add(craftLBP2(f, 4<<20, 1, 2))
	f.Add(craftLBP2(f, 4<<20, 4<<20, 100<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := decodeLBP2(t, data)
		runtime.ReadMemStats(&after)
		// Every record takes at least 2 bytes, so buffers sized from what
		// the bytes back stay within a small multiple of the input.
		if b, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+128*len(data)); b > limit {
			t.Fatalf("decoding %d bytes allocated %d B, over %d", len(data), b, limit)
		}
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
			t.Skip("LBP2 magic sniffs as LBP2, whose layout parser and reader FuzzLBP2 covers")
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
