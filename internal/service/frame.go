package service

import (
	"bytes"
	"hash/crc32"
	"strconv"
)

// The LBPJRNL1 framing discipline: every record of an append-only journal is
// one self-verifying line,
//
//	<magic> <crc32c-hex> <payload-bytes> <payload>\n
//
// The length field pins torn appends (a crash mid-write truncates the
// payload), the CRC-32C catches bit rot that still parses, and decoding
// stops at the first damaged frame — every fully written record before it is
// trustworthy. The shard coordinator's lease journals use this framing
// through EncodeFrame/DecodeFrames.

// Frame is one decoded journal record: its payload and the byte offset of
// the frame's first byte, so callers that must truncate damage (torn tails)
// know exactly where the valid prefix ends.
type Frame struct {
	Payload []byte
	Offset  int64
}

// EncodeFrame wraps payload in the LBPJRNL1 frame layout under the given
// magic. The payload must not contain a newline (JSON-encoded records never
// do): the frame terminator doubles as the record separator.
func EncodeFrame(magic string, payload []byte) []byte {
	frame := make([]byte, 0, len(magic)+len(payload)+24)
	frame = append(frame, magic...)
	frame = append(frame, ' ')
	frame = appendHex8(frame, crc32.Checksum(payload, crcTable))
	frame = append(frame, ' ')
	frame = strconv.AppendInt(frame, int64(len(payload)), 10)
	frame = append(frame, ' ')
	frame = append(frame, payload...)
	frame = append(frame, '\n')
	return frame
}

// crcTable is the Castagnoli polynomial, matching the checkpoint envelope.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendHex8 appends v as exactly eight lowercase hex digits.
func appendHex8(dst []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, digits[(v>>shift)&0xf])
	}
	return dst
}

// DecodeFrames parses framed records from data, returning the intact prefix
// of frames and the byte offset up to which the stream is valid. Parsing
// stops at the first damaged frame (torn append, CRC mismatch, malformed,
// non-canonical or wrong-magic header) — everything before it is
// trustworthy, everything after is unreachable because the frame stream has
// lost sync.
func DecodeFrames(magic string, data []byte) (frames []Frame, valid int64) {
	off := int64(0)
	for int(off) < len(data) {
		rest := data[off:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return frames, off // torn tail: no record terminator
		}
		line := rest[:nl]
		// Header: magic, crc hex, payload length — three space-separated
		// fields before the payload itself.
		p1 := bytes.IndexByte(line, ' ')
		if p1 < 0 || string(line[:p1]) != magic {
			return frames, off
		}
		p2 := bytes.IndexByte(line[p1+1:], ' ')
		if p2 < 0 {
			return frames, off
		}
		p2 += p1 + 1
		p3 := bytes.IndexByte(line[p2+1:], ' ')
		if p3 < 0 {
			return frames, off
		}
		p3 += p2 + 1
		crcField, lenField := line[p1+1:p2], line[p2+1:p3]
		wantCRC, err := strconv.ParseUint(string(crcField), 16, 32)
		if err != nil {
			return frames, off
		}
		wantLen, err := strconv.Atoi(string(lenField))
		if err != nil {
			return frames, off
		}
		// Only the exact header EncodeFrame writes is a frame: eight
		// lowercase hex CRC digits and an unsigned, unpadded length. A
		// decoded frame therefore always re-encodes to its input bytes.
		var canon [20]byte
		if !bytes.Equal(appendHex8(canon[:0], uint32(wantCRC)), crcField) ||
			!bytes.Equal(strconv.AppendInt(canon[:0], int64(wantLen), 10), lenField) {
			return frames, off
		}
		payload := line[p3+1:]
		if len(payload) != wantLen {
			return frames, off // torn append or embedded newline damage
		}
		if crc32.Checksum(payload, crcTable) != uint32(wantCRC) {
			return frames, off
		}
		frames = append(frames, Frame{Payload: payload, Offset: off})
		off += int64(nl) + 1
	}
	return frames, off
}
