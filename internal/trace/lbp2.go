package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
)

// LBP2 is the compact on-disk trace format: delta-encoded PCs, varint
// operands, chunked framing with a per-chunk CRC-32C, and a seekable chunk
// index so both buffered-file and mmap readers can ingest multi-million-
// instruction traces at fixed memory. Every chunk carries a CRC-32C
// (Castagnoli), so a torn or corrupted chunk is detected before any of its
// records are trusted. DESIGN.md §16 specifies the wire format.
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
// is what makes the index seekable and the mmap reader trivially parallel-
// safe across chunks. Per record:
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

	lbp2HeaderSize  = 16
	lbp2ChunkHdr    = 12
	lbp2IndexEntry  = 16
	lbp2FooterSize  = 32
	lbp2EndMarker   = uint32(0xFFFFFFFF)
	lbp2MaxRecBytes = 1 + binary.MaxVarintLen64 + 3 + 2*binary.MaxVarintLen64

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

// decodeChunk decodes exactly records instructions from payload into
// dst[:records]. Every branch is bounds-checked: a corrupt payload yields an
// error, never a panic or an out-of-range Class.
func decodeChunk(dst []Inst, payload []byte, records int) error {
	var prevPC, prevAddr uint64
	pos := 0
	getVar := func() (uint64, bool) {
		u, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return u, true
	}
	for i := 0; i < records; i++ {
		if pos >= len(payload) {
			return fmt.Errorf("trace: lbp2 chunk truncated at record %d/%d", i, records)
		}
		flags := payload[pos]
		pos++
		if flags&flagReserved != 0 {
			return fmt.Errorf("trace: lbp2 record %d: reserved flag bits %#x set", i, flags&flagReserved)
		}
		class := Class(flags & 0x7)
		if class >= numClasses {
			return fmt.Errorf("trace: lbp2 record %d: bad class %d", i, class)
		}
		dpc, ok := getVar()
		if !ok {
			return fmt.Errorf("trace: lbp2 record %d: bad PC varint", i)
		}
		in := &dst[i]
		*in = Inst{Class: class, Taken: flags&flagTakenBit != 0}
		in.PC = prevPC + uint64(unzigzag(dpc))
		prevPC = in.PC
		if flags&flagNoRegsBit == 0 {
			if pos+3 > len(payload) {
				return fmt.Errorf("trace: lbp2 record %d: truncated register bytes", i)
			}
			in.Dst, in.Src1, in.Src2 = payload[pos], payload[pos+1], payload[pos+2]
			pos += 3
			if in.Dst >= NumRegs || in.Src1 >= NumRegs || in.Src2 >= NumRegs {
				return fmt.Errorf("trace: lbp2 record %d: register out of range (%d,%d,%d)",
					i, in.Dst, in.Src1, in.Src2)
			}
		}
		if class == ClassBranch {
			dt, ok := getVar()
			if !ok {
				return fmt.Errorf("trace: lbp2 record %d: bad target varint", i)
			}
			in.Target = in.PC + uint64(unzigzag(dt))
		}
		if class == ClassLoad || class == ClassStore {
			da, ok := getVar()
			if !ok {
				return fmt.Errorf("trace: lbp2 record %d: bad address varint", i)
			}
			in.Addr = prevAddr + uint64(unzigzag(da))
			prevAddr = in.Addr
		}
	}
	if pos != len(payload) {
		return fmt.Errorf("trace: lbp2 chunk has %d trailing bytes after %d records", len(payload)-pos, records)
	}
	return nil
}

// chunkIx locates one chunk: the file offset of its 12-byte header and its
// record count.
type chunkIx struct {
	off     int64
	records int
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

// ReadTraceLBP2 decodes a whole LBP2 stream from r into memory (conversion
// tooling; streaming consumers use OpenSource). It needs no seeking: chunks
// are read sequentially until the end marker.
func ReadTraceLBP2(r io.Reader) ([]Inst, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	chunkLen, err := readLBP2Header(br)
	if err != nil {
		return nil, err
	}
	var out []Inst
	var payload []byte
	var chunk []Inst
	for {
		var hdr [lbp2ChunkHdr]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("trace: lbp2 chunk header: %w", err)
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		if plen == lbp2EndMarker {
			return out, nil
		}
		records := int(binary.LittleEndian.Uint32(hdr[4:]))
		if err := checkChunkHeader(plen, records, chunkLen); err != nil {
			return nil, err
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("trace: lbp2 chunk payload: %w", err)
		}
		if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[8:]); got != want {
			return nil, fmt.Errorf("trace: lbp2 chunk CRC mismatch (got %#x, want %#x)", got, want)
		}
		if cap(chunk) < records {
			chunk = make([]Inst, records)
		}
		chunk = chunk[:records]
		if err := decodeChunk(chunk, payload, records); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
}

// readLBP2Header validates the 16-byte stream header and returns chunkLen.
func readLBP2Header(r io.Reader) (int, error) {
	var hdr [lbp2HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("trace: lbp2 header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != lbp2Magic {
		return 0, errors.New("trace: bad magic (not an LBP2 trace)")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != lbp2Version {
		return 0, fmt.Errorf("trace: unsupported LBP2 version %d", v)
	}
	chunkLen := int(binary.LittleEndian.Uint32(hdr[8:]))
	if chunkLen <= 0 || chunkLen > maxChunkLen {
		return 0, fmt.Errorf("trace: lbp2 chunk length %d out of range", chunkLen)
	}
	return chunkLen, nil
}

// checkChunkHeader bounds a chunk's payload length and record count before
// anything is sized from them.
func checkChunkHeader(plen uint32, records, chunkLen int) error {
	if records <= 0 || records > chunkLen {
		return fmt.Errorf("trace: lbp2 chunk record count %d out of range (chunkLen %d)", records, chunkLen)
	}
	if int64(plen) > int64(records)*lbp2MaxRecBytes {
		return fmt.Errorf("trace: lbp2 chunk payload %d bytes exceeds %d records' maximum", plen, records)
	}
	if plen == 0 {
		return errors.New("trace: lbp2 empty chunk payload")
	}
	return nil
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
	chunkLen, err := readLBP2Header(bytesReader(hdr[:]))
	if err != nil {
		return nil, err
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
		if off < lbp2HeaderSize || off >= indexOff || records <= 0 || records > chunkLen {
			return nil, fmt.Errorf("trace: lbp2 index entry %d invalid (off %d, %d records)", i, off, records)
		}
		l.index[i] = chunkIx{off: off, records: records}
		sum += records
	}
	if sum != total {
		return nil, fmt.Errorf("trace: lbp2 index records sum %d != footer total %d", sum, total)
	}
	return l, nil
}

// chunkLoader fetches and verifies one chunk's decoded records.
type chunkLoader interface {
	// load decodes chunk k into dst[:records] and returns the record count.
	load(k int, dst []Inst) (int, error)
	io.Closer
}

// lbp2Source replays a seekable LBP2 file chunk by chunk at fixed memory: one
// decoded chunk buffer regardless of trace length. It backs both the
// buffered-file and the mmap readers (they differ only in the chunkLoader).
type lbp2Source struct {
	layout *lbp2Layout
	loader chunkLoader
	chunk  []Inst // decoded records of chunk cur
	cur    int    // next chunk to load
	pos    int    // read position within chunk
	n      int    // live records in chunk
}

func newLBP2Source(layout *lbp2Layout, loader chunkLoader) *lbp2Source {
	return &lbp2Source{
		layout: layout,
		loader: loader,
		chunk:  make([]Inst, layout.chunkLen),
	}
}

// Next implements Source.
func (s *lbp2Source) Next(dst []Inst) (int, error) {
	filled := 0
	for filled < len(dst) {
		if s.pos == s.n {
			if s.cur >= len(s.layout.index) {
				if filled > 0 {
					return filled, nil
				}
				return 0, io.EOF
			}
			n, err := s.loader.load(s.cur, s.chunk)
			if err != nil {
				return 0, err
			}
			s.cur++
			s.pos, s.n = 0, n
		}
		c := copy(dst[filled:], s.chunk[s.pos:s.n])
		filled += c
		s.pos += c
	}
	return filled, nil
}

// Reset implements Source.
func (s *lbp2Source) Reset() error {
	s.cur, s.pos, s.n = 0, 0, 0
	return nil
}

// Len implements Source.
func (s *lbp2Source) Len() int { return s.layout.total }

// Close releases the underlying file or mapping.
func (s *lbp2Source) Close() error { return s.loader.Close() }

// fileChunks loads chunks with positioned reads against an open file.
type fileChunks struct {
	ra      readAtCloser
	layout  *lbp2Layout
	hdr     [lbp2ChunkHdr]byte
	payload []byte
}

// readAtCloser is the file-like dependency of fileChunks (os.File in
// production, anything positioned-readable in tests).
type readAtCloser interface {
	io.ReaderAt
	io.Closer
}

func (fc *fileChunks) load(k int, dst []Inst) (int, error) {
	c := fc.layout.index[k]
	if _, err := fc.ra.ReadAt(fc.hdr[:], c.off); err != nil {
		return 0, fmt.Errorf("trace: lbp2 chunk %d header: %w", k, err)
	}
	plen := binary.LittleEndian.Uint32(fc.hdr[0:])
	records := int(binary.LittleEndian.Uint32(fc.hdr[4:]))
	if err := checkChunkHeader(plen, records, fc.layout.chunkLen); err != nil {
		return 0, err
	}
	if records != c.records {
		return 0, fmt.Errorf("trace: lbp2 chunk %d: header records %d != index records %d", k, records, c.records)
	}
	if cap(fc.payload) < int(plen) {
		fc.payload = make([]byte, plen)
	}
	fc.payload = fc.payload[:plen]
	if _, err := fc.ra.ReadAt(fc.payload, c.off+lbp2ChunkHdr); err != nil {
		return 0, fmt.Errorf("trace: lbp2 chunk %d payload: %w", k, err)
	}
	if got, want := crc32.Checksum(fc.payload, castagnoli), binary.LittleEndian.Uint32(fc.hdr[8:]); got != want {
		return 0, fmt.Errorf("trace: lbp2 chunk %d CRC mismatch (got %#x, want %#x)", k, got, want)
	}
	if err := decodeChunk(dst[:records], fc.payload, records); err != nil {
		return 0, err
	}
	return records, nil
}

func (fc *fileChunks) Close() error { return fc.ra.Close() }

// mmapChunks loads chunks by slicing a read-only memory mapping: ingestion
// with zero read syscalls after open.
type mmapChunks struct {
	data   []byte
	layout *lbp2Layout
	unmap  func() error
}

func (mc *mmapChunks) load(k int, dst []Inst) (int, error) {
	c := mc.layout.index[k]
	if c.off+lbp2ChunkHdr > int64(len(mc.data)) {
		return 0, fmt.Errorf("trace: lbp2 chunk %d header beyond mapping", k)
	}
	hdr := mc.data[c.off:]
	plen := binary.LittleEndian.Uint32(hdr[0:])
	records := int(binary.LittleEndian.Uint32(hdr[4:]))
	if err := checkChunkHeader(plen, records, mc.layout.chunkLen); err != nil {
		return 0, err
	}
	if records != c.records {
		return 0, fmt.Errorf("trace: lbp2 chunk %d: header records %d != index records %d", k, records, c.records)
	}
	start := c.off + lbp2ChunkHdr
	if start+int64(plen) > int64(len(mc.data)) {
		return 0, fmt.Errorf("trace: lbp2 chunk %d payload beyond mapping", k)
	}
	payload := mc.data[start : start+int64(plen)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[8:]); got != want {
		return 0, fmt.Errorf("trace: lbp2 chunk %d CRC mismatch (got %#x, want %#x)", k, got, want)
	}
	if err := decodeChunk(dst[:records], payload, records); err != nil {
		return 0, err
	}
	return records, nil
}

func (mc *mmapChunks) Close() error {
	if mc.unmap == nil {
		return nil
	}
	u := mc.unmap
	mc.unmap = nil
	mc.data = nil
	return u()
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

// String renders the stats on one line.
func (s Stats2) String() string {
	return fmt.Sprintf("lbp2: records=%d chunks=%d chunkLen=%d bytes=%d (%.2f B/inst, %.1fx vs %d-B raw records)",
		s.Records, s.Chunks, s.ChunkLen, s.FileBytes,
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

// bytesReader adapts a small byte slice to io.Reader without importing
// bytes (kept tiny on purpose; header-sized inputs only).
type byteSliceReader struct {
	b   []byte
	pos int
}

func bytesReader(b []byte) io.Reader { return &byteSliceReader{b: b} }

func (r *byteSliceReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.pos:])
	r.pos += n
	return n, nil
}

// sizeHint estimates the encoded size of one instruction (used by tools to
// preallocate): 1 flag + dPC + regs + operand varints.
func sizeHint(in *Inst, prevPC, prevAddr uint64) int {
	n := 1 + uvarintLen(zigzag(int64(in.PC-prevPC)))
	if !(in.Dst == 0 && in.Src1 == 0 && in.Src2 == 0) {
		n += 3
	}
	if in.Class == ClassBranch {
		n += uvarintLen(zigzag(int64(in.Target - in.PC)))
	}
	if in.Class == ClassLoad || in.Class == ClassStore {
		n += uvarintLen(zigzag(int64(in.Addr - prevAddr)))
	}
	return n
}

// uvarintLen is the encoded length of u.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }
