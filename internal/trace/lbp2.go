package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// LBP2 is the compact on-disk trace format: delta-encoded PCs, varint
// operands, chunked framing with a per-chunk CRC-32C, and a seekable chunk
// index so a reader can ingest multi-million-instruction traces at fixed
// memory. Every chunk carries a CRC-32C (Castagnoli), so a torn or corrupted
// chunk is detected before any of its records are decoded. DESIGN.md §16
// specifies the wire format.
//
// Layout:
//
//	header  (16 B)  magic "LBP2" | version | chunkLen | reserved   (u32 LE each)
//	chunk*          chunk header (12 B: payloadLen | records | crc32c) + payload
//	end marker (12 B)  payloadLen = 0xFFFFFFFF, records = 0, crc = 0
//	index           chunkCount × (offset u64 | records u32 | reserved u32)
//	footer  (32 B)  indexOff u64 | total u64 | chunkCount u32 | indexCRC u32 |
//	                reserved u32 | magic "PBP2" u32
//
// Each chunk is independently decodable (delta state resets per chunk), which
// is what makes the index seekable. Per record:
//
//	flags   1 B   class (bits 0-2) | taken (bit 3) | no-regs (bit 4); bits 5-7 zero
//	dPC     uvarint, zigzag(PC - prevPC)
//	regs    3 B   Dst, Src1, Src2 — omitted when the no-regs flag is set
//	target  uvarint, zigzag(Target - PC)     — branches only
//	dAddr   uvarint, zigzag(Addr - prevAddr) — loads and stores only

const (
	lbp2Magic       = uint32(0x4c425032) // "LBP2"
	lbp2FooterMagic = uint32(0x32504250) // "PBP2" reversed marker for tail sniffing
	lbp2Version     = uint32(1)

	lbp2HeaderSize = 16
	lbp2ChunkHdr   = 12
	lbp2IndexEntry = 16
	lbp2FooterSize = 32
	lbp2EndMarker  = uint32(0xFFFFFFFF)
	// lbp2MinRecBytes is the smallest encoded record: the flags byte and a
	// one-byte PC delta.
	lbp2MinRecBytes = 2

	// DefaultChunkLen is the records-per-chunk default: 64 Ki instructions
	// (~2 MiB decoded) balances seek granularity against framing overhead.
	DefaultChunkLen = 1 << 16
	// maxChunkLen bounds what the decoder accepts, so a corrupt header can
	// never size a pathological allocation.
	maxChunkLen = 1 << 22

	flagTakenBit  = 1 << 3
	flagNoRegsBit = 1 << 4
	flagReserved  = 0xE0
)

// castagnoli is the CRC-32C table shared by every chunk and the index.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendChunk delta+varint encodes recs onto buf (delta state starts fresh:
// chunks must be independently decodable for the seekable index).
func appendChunk(buf []byte, recs []Inst) []byte {
	var prevPC, prevAddr uint64
	var tmp [binary.MaxVarintLen64]byte
	putVar := func(u uint64) {
		n := binary.PutUvarint(tmp[:], u)
		buf = append(buf, tmp[:n]...)
	}
	for i := range recs {
		in := &recs[i]
		flags := byte(in.Class)
		if in.Taken {
			flags |= flagTakenBit
		}
		noRegs := in.Dst == 0 && in.Src1 == 0 && in.Src2 == 0
		if noRegs {
			flags |= flagNoRegsBit
		}
		buf = append(buf, flags)
		putVar(zigzag(int64(in.PC - prevPC)))
		prevPC = in.PC
		if !noRegs {
			buf = append(buf, in.Dst, in.Src1, in.Src2)
		}
		if in.Class == ClassBranch {
			putVar(zigzag(int64(in.Target - in.PC)))
		}
		if in.Class == ClassLoad || in.Class == ClassStore {
			putVar(zigzag(int64(in.Addr - prevAddr)))
			prevAddr = in.Addr
		}
	}
	return buf
}

// chunkDecoder decodes one verified chunk's records in as many pieces as
// its caller asks for: it carries the byte offset, both delta chains and the
// records done across calls, so a Next that ends mid-chunk resumes where it
// stopped. Every read is bounds-checked: a corrupt payload yields an error
// naming the record, never a panic or an out-of-range Class.
type chunkDecoder struct {
	chunk    int // index of the chunk, for error messages
	payload  []byte
	pos      int // byte offset of the next record
	prevPC   uint64
	prevAddr uint64
	done     int // records decoded so far
	records  int // records the chunk holds
}

// decode writes the chunk's next records to dst and returns how many it
// wrote. On an error, dst[:n] holds the good records before the bad one. The
// trailing-bytes check fires once the chunk's last record is decoded.
func (d *chunkDecoder) decode(dst []Inst) (int, error) {
	payload, pos := d.payload, d.pos
	prevPC, prevAddr := d.prevPC, d.prevAddr
	getVar := func() (uint64, bool) {
		u, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return u, true
	}
	n := min(len(dst), d.records-d.done)
	for i := range dst[:n] {
		if pos >= len(payload) {
			return i, fmt.Errorf("trace: lbp2 chunk %d truncated at record %d/%d", d.chunk, d.done+i, d.records)
		}
		flags := payload[pos]
		pos++
		if flags&flagReserved != 0 {
			return i, d.errorf(i, "reserved flag bits %#x set", flags&flagReserved)
		}
		class := Class(flags & 0x7)
		if class >= numClasses {
			return i, d.errorf(i, "bad class %d", class)
		}
		dpc, ok := getVar()
		if !ok {
			return i, d.errorf(i, "bad PC varint")
		}
		in := &dst[i]
		*in = Inst{Class: class, Taken: flags&flagTakenBit != 0}
		in.PC = prevPC + uint64(unzigzag(dpc))
		prevPC = in.PC
		if flags&flagNoRegsBit == 0 {
			if pos+3 > len(payload) {
				return i, d.errorf(i, "truncated register bytes")
			}
			in.Dst, in.Src1, in.Src2 = payload[pos], payload[pos+1], payload[pos+2]
			pos += 3
			if in.Dst >= NumRegs || in.Src1 >= NumRegs || in.Src2 >= NumRegs {
				return i, d.errorf(i, "register out of range (%d,%d,%d)", in.Dst, in.Src1, in.Src2)
			}
		}
		if class == ClassBranch {
			dt, ok := getVar()
			if !ok {
				return i, d.errorf(i, "bad target varint")
			}
			in.Target = in.PC + uint64(unzigzag(dt))
		}
		if class == ClassLoad || class == ClassStore {
			da, ok := getVar()
			if !ok {
				return i, d.errorf(i, "bad address varint")
			}
			in.Addr = prevAddr + uint64(unzigzag(da))
			prevAddr = in.Addr
		}
	}
	d.pos, d.prevPC, d.prevAddr = pos, prevPC, prevAddr
	d.done += n
	if d.done == d.records && pos != len(payload) {
		return n, fmt.Errorf("trace: lbp2 chunk %d has %d trailing bytes after %d records", d.chunk, len(payload)-pos, d.records)
	}
	return n, nil
}

// errorf reports a bad i-th record of the current decode call, naming it by
// its index in the chunk.
func (d *chunkDecoder) errorf(i int, format string, args ...any) error {
	return fmt.Errorf("trace: lbp2 chunk %d record %d: %s", d.chunk, d.done+i, fmt.Sprintf(format, args...))
}

// chunkIx locates one chunk: the file offset of its 12-byte header, its
// record count and its payload length. The writer's index stores only the
// first two; the reader derives payload from the next chunk's offset.
type chunkIx struct {
	off     int64
	records int
	payload int64
}

// LBP2Writer streams instructions into the LBP2 format: Append any number of
// times, then Close to emit the end marker, the chunk index and the footer.
// Memory stays fixed at one chunk regardless of trace length.
type LBP2Writer struct {
	w        *bufio.Writer
	off      int64
	chunkLen int
	pending  []Inst
	buf      []byte
	index    []chunkIx
	total    uint64
	closed   bool
	err      error
}

// NewLBP2Writer starts an LBP2 stream on w. chunkLen <= 0 selects
// DefaultChunkLen.
func NewLBP2Writer(w io.Writer, chunkLen int) (*LBP2Writer, error) {
	if chunkLen <= 0 {
		chunkLen = DefaultChunkLen
	}
	if chunkLen > maxChunkLen {
		return nil, fmt.Errorf("trace: lbp2 chunk length %d exceeds the %d cap", chunkLen, maxChunkLen)
	}
	lw := &LBP2Writer{
		w:        bufio.NewWriterSize(w, 1<<16),
		chunkLen: chunkLen,
		pending:  make([]Inst, 0, chunkLen),
	}
	var hdr [lbp2HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], lbp2Magic)
	binary.LittleEndian.PutUint32(hdr[4:], lbp2Version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(chunkLen))
	if err := lw.write(hdr[:]); err != nil {
		return nil, err
	}
	return lw, nil
}

func (lw *LBP2Writer) write(b []byte) error {
	if lw.err != nil {
		return lw.err
	}
	n, err := lw.w.Write(b)
	lw.off += int64(n)
	if err != nil {
		lw.err = fmt.Errorf("trace: lbp2 write: %w", err)
	}
	return lw.err
}

// Append adds instructions to the stream, flushing full chunks as they fill.
func (lw *LBP2Writer) Append(tr []Inst) error {
	if lw.closed {
		return errors.New("trace: lbp2 writer already closed")
	}
	for len(tr) > 0 {
		take := lw.chunkLen - len(lw.pending)
		if take > len(tr) {
			take = len(tr)
		}
		lw.pending = append(lw.pending, tr[:take]...)
		tr = tr[take:]
		if len(lw.pending) == lw.chunkLen {
			if err := lw.flushChunk(); err != nil {
				return err
			}
		}
	}
	return lw.err
}

// flushChunk encodes and frames the pending records.
func (lw *LBP2Writer) flushChunk() error {
	if len(lw.pending) == 0 {
		return lw.err
	}
	lw.buf = appendChunk(lw.buf[:0], lw.pending)
	var hdr [lbp2ChunkHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(lw.buf)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(lw.pending)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(lw.buf, castagnoli))
	lw.index = append(lw.index, chunkIx{off: lw.off, records: len(lw.pending)})
	if err := lw.write(hdr[:]); err != nil {
		return err
	}
	if err := lw.write(lw.buf); err != nil {
		return err
	}
	lw.total += uint64(len(lw.pending))
	lw.pending = lw.pending[:0]
	return nil
}

// Close flushes the final partial chunk and writes the end marker, index and
// footer. The writer is unusable afterwards.
func (lw *LBP2Writer) Close() error {
	if lw.closed {
		return lw.err
	}
	lw.closed = true
	if err := lw.flushChunk(); err != nil {
		return err
	}
	var end [lbp2ChunkHdr]byte
	binary.LittleEndian.PutUint32(end[0:], lbp2EndMarker)
	if err := lw.write(end[:]); err != nil {
		return err
	}
	indexOff := lw.off
	ix := make([]byte, 0, len(lw.index)*lbp2IndexEntry)
	var ent [lbp2IndexEntry]byte
	for _, c := range lw.index {
		binary.LittleEndian.PutUint64(ent[0:], uint64(c.off))
		binary.LittleEndian.PutUint32(ent[8:], uint32(c.records))
		binary.LittleEndian.PutUint32(ent[12:], 0)
		ix = append(ix, ent[:]...)
	}
	if err := lw.write(ix); err != nil {
		return err
	}
	var foot [lbp2FooterSize]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(indexOff))
	binary.LittleEndian.PutUint64(foot[8:], lw.total)
	binary.LittleEndian.PutUint32(foot[16:], uint32(len(lw.index)))
	binary.LittleEndian.PutUint32(foot[20:], crc32.Checksum(ix, castagnoli))
	binary.LittleEndian.PutUint32(foot[28:], lbp2FooterMagic)
	if err := lw.write(foot[:]); err != nil {
		return err
	}
	if err := lw.w.Flush(); err != nil && lw.err == nil {
		lw.err = fmt.Errorf("trace: lbp2 flush: %w", err)
	}
	return lw.err
}

// WriteTraceLBP2 serializes tr to w in the LBP2 format (the streaming
// LBP2Writer with one Append).
func WriteTraceLBP2(w io.Writer, tr []Inst) error {
	lw, err := NewLBP2Writer(w, 0)
	if err != nil {
		return err
	}
	if err := lw.Append(tr); err != nil {
		return err
	}
	return lw.Close()
}

// lbp2Layout is the parsed index of a seekable LBP2 file: everything a
// random-access reader needs besides the chunk bytes themselves.
type lbp2Layout struct {
	chunkLen int
	total    int
	index    []chunkIx
}

// parseLBP2Layout reads the header, footer and index via ra. size is the
// total file size.
func parseLBP2Layout(ra io.ReaderAt, size int64) (*lbp2Layout, error) {
	var hdr [lbp2HeaderSize]byte
	if _, err := ra.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("trace: lbp2 header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != lbp2Magic {
		return nil, errors.New("trace: bad magic (not an LBP2 trace)")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != lbp2Version {
		return nil, fmt.Errorf("trace: unsupported LBP2 version %d", v)
	}
	chunkLen := int(binary.LittleEndian.Uint32(hdr[8:]))
	if chunkLen <= 0 || chunkLen > maxChunkLen {
		return nil, fmt.Errorf("trace: lbp2 chunk length %d out of range", chunkLen)
	}
	if size < lbp2HeaderSize+lbp2ChunkHdr+lbp2FooterSize {
		return nil, errors.New("trace: lbp2 file too short for header, end marker and footer")
	}
	var foot [lbp2FooterSize]byte
	if _, err := ra.ReadAt(foot[:], size-lbp2FooterSize); err != nil {
		return nil, fmt.Errorf("trace: lbp2 footer: %w", err)
	}
	if binary.LittleEndian.Uint32(foot[28:]) != lbp2FooterMagic {
		return nil, errors.New("trace: lbp2 footer magic missing (truncated or torn file)")
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	total, err := checkCount(binary.LittleEndian.Uint64(foot[8:]), "lbp2 total")
	if err != nil {
		return nil, err
	}
	chunks := int(binary.LittleEndian.Uint32(foot[16:]))
	ixBytes := int64(chunks) * lbp2IndexEntry
	if indexOff < lbp2HeaderSize || indexOff+ixBytes != size-lbp2FooterSize {
		return nil, fmt.Errorf("trace: lbp2 index geometry invalid (off %d, %d chunks, size %d)", indexOff, chunks, size)
	}
	ix := make([]byte, ixBytes)
	if _, err := ra.ReadAt(ix, indexOff); err != nil {
		return nil, fmt.Errorf("trace: lbp2 index: %w", err)
	}
	if got, want := crc32.Checksum(ix, castagnoli), binary.LittleEndian.Uint32(foot[20:]); got != want {
		return nil, fmt.Errorf("trace: lbp2 index CRC mismatch (got %#x, want %#x)", got, want)
	}
	l := &lbp2Layout{chunkLen: chunkLen, total: total, index: make([]chunkIx, chunks)}
	sum := 0
	for i := range l.index {
		off := int64(binary.LittleEndian.Uint64(ix[i*lbp2IndexEntry:]))
		records := int(binary.LittleEndian.Uint32(ix[i*lbp2IndexEntry+8:]))
		// Chunks tile the file in index order: a chunk's payload runs to the
		// next chunk's header, the last one's to the end marker. A record
		// count its payload cannot hold is rejected here, so no reader sizes
		// a buffer from a count the file's bytes do not back.
		end := indexOff - lbp2ChunkHdr
		if i+1 < chunks {
			end = int64(binary.LittleEndian.Uint64(ix[(i+1)*lbp2IndexEntry:]))
		}
		payload := end - off - lbp2ChunkHdr
		if off < lbp2HeaderSize || records <= 0 || records > chunkLen || payload < int64(records)*lbp2MinRecBytes {
			return nil, fmt.Errorf("trace: lbp2 index entry %d invalid (off %d, %d records, %d payload bytes)",
				i, off, records, payload)
		}
		l.index[i] = chunkIx{off: off, records: records, payload: payload}
		sum += records
	}
	if sum != total {
		return nil, fmt.Errorf("trace: lbp2 index records sum %d != footer total %d", sum, total)
	}
	return l, nil
}

// lbp2Source replays a seekable LBP2 file chunk by chunk at fixed memory:
// one payload buffer, as large as the largest chunk's payload, whatever the
// trace length. Each chunk's header and payload come in by positioned reads
// and are verified before any record is decoded; records are decoded
// straight into the caller's buffer.
type lbp2Source struct {
	ra      io.ReaderAt // the open *os.File in production
	layout  *lbp2Layout
	hdr     [lbp2ChunkHdr]byte
	payload []byte       // holds the largest chunk's payload
	dec     chunkDecoder // decodes the current chunk across Next calls
	next    int          // next chunk to load
	err     error        // the first read, check or decode failure, returned from then on
}

// openLBP2 parses the seekable layout of the size-byte LBP2 file behind ra
// and sizes the payload buffer for its largest chunk, whose extent the
// layout has checked against the file.
func openLBP2(ra io.ReaderAt, size int64) (Source, error) {
	layout, err := parseLBP2Layout(ra, size)
	if err != nil {
		return nil, err
	}
	var largest int64
	for _, c := range layout.index {
		largest = max(largest, c.payload)
	}
	return &lbp2Source{ra: ra, layout: layout, payload: make([]byte, largest)}, nil
}

// Next implements Source. A call that ends mid-chunk resumes there, and one
// that spans chunks loads the next. A bad record fails the source, but the
// records before it are delivered first.
func (s *lbp2Source) Next(dst []Inst) (int, error) {
	filled := 0
	for s.err == nil && filled < len(dst) {
		if s.dec.done == s.dec.records {
			if s.next == len(s.layout.index) {
				break
			}
			s.err = s.load(s.next)
			s.next++
			continue
		}
		n, err := s.dec.decode(dst[filled:])
		filled += n
		s.err = err
	}
	if filled > 0 {
		return filled, nil
	}
	if s.err != nil {
		return 0, s.err
	}
	return 0, io.EOF
}

// load reads chunk k's header and payload, checks the header against the
// index and the payload against its CRC-32C, and points the decoder at it.
func (s *lbp2Source) load(k int) error {
	c := s.layout.index[k]
	if _, err := s.ra.ReadAt(s.hdr[:], c.off); err != nil {
		return fmt.Errorf("trace: lbp2 chunk %d header: %w", k, err)
	}
	// The header must agree with the index, which open checked against
	// the file's bytes.
	if records := int(binary.LittleEndian.Uint32(s.hdr[4:])); records != c.records {
		return fmt.Errorf("trace: lbp2 chunk %d: header records %d != index records %d", k, records, c.records)
	}
	if plen := int64(binary.LittleEndian.Uint32(s.hdr[0:])); plen != c.payload {
		return fmt.Errorf("trace: lbp2 chunk %d: payload %d bytes != the %d bytes before the next chunk", k, plen, c.payload)
	}
	payload := s.payload[:c.payload]
	if _, err := s.ra.ReadAt(payload, c.off+lbp2ChunkHdr); err != nil {
		return fmt.Errorf("trace: lbp2 chunk %d payload: %w", k, err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(s.hdr[8:]); got != want {
		return fmt.Errorf("trace: lbp2 chunk %d CRC mismatch (got %#x, want %#x)", k, got, want)
	}
	s.dec = chunkDecoder{chunk: k, payload: payload, records: c.records}
	return nil
}

// Len implements Source.
func (s *lbp2Source) Len() int { return s.layout.total }

// Close closes the underlying file; a reader without a Close has nothing to
// release.
func (s *lbp2Source) Close() error {
	if c, ok := s.ra.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// RawRecordBytes is the width of one instruction's fields packed flat: PC,
// Addr and Target (8 B each), class, taken and three register bytes. It is
// the uncompressed baseline LBP2's compression is measured against.
const RawRecordBytes = 8 + 8 + 8 + 1 + 1 + 3

// Stats2 summarizes an LBP2 file's framing for lbptrace -stat.
type Stats2 struct {
	Records   int
	Chunks    int
	ChunkLen  int
	FileBytes int64
}

// BytesPerInst is the compression figure of merit (raw records are a flat
// RawRecordBytes per instruction).
func (s Stats2) BytesPerInst() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.FileBytes) / float64(s.Records)
}

// String renders the stats on one line; the compression ratio is printed
// only when the file holds records.
func (s Stats2) String() string {
	line := fmt.Sprintf("lbp2: records=%d chunks=%d chunkLen=%d bytes=%d",
		s.Records, s.Chunks, s.ChunkLen, s.FileBytes)
	if s.Records == 0 {
		return line
	}
	return line + fmt.Sprintf(" (%.2f B/inst, %.1fx vs %d-B raw records)",
		s.BytesPerInst(), RawRecordBytes/s.BytesPerInst(), RawRecordBytes)
}

// StatLBP2 parses just the seekable metadata of an LBP2 file.
func StatLBP2(ra io.ReaderAt, size int64) (Stats2, error) {
	layout, err := parseLBP2Layout(ra, size)
	if err != nil {
		return Stats2{}, err
	}
	return Stats2{
		Records:   layout.total,
		Chunks:    len(layout.index),
		ChunkLen:  layout.chunkLen,
		FileBytes: size,
	}, nil
}
