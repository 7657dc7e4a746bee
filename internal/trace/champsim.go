package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// ChampSim/BT9-style external-trace adapter: fixed 64-byte records in the
// champsim input_instr layout, replayed behind the same Source contract as
// the native formats so real traces drop into every consumer (lbpsim
// -trace-file, the harness, the facade) unchanged.
//
// Record layout (little-endian):
//
//	ip         u64     instruction pointer
//	is_branch  u8
//	taken      u8
//	dst_regs   2 × u8
//	src_regs   4 × u8
//	dst_mem    2 × u64  store addresses (0 = unused slot)
//	src_mem    4 × u64  load addresses  (0 = unused slot)
//
// The format carries no explicit branch target; a taken branch's target is
// the next record's ip (the stream is the committed path), which is why the
// adapter decodes with one record of lookahead.
const champsimRecSize = 64

// champsimSource streams a .champsim/.cst file with positioned reads.
type champsimSource struct {
	f     *os.File
	total int
	pos   int // next record index
	buf   []byte
}

// openChampSim sizes the stream from the file length (the format has no
// header).
func openChampSim(f *os.File, size int64) (Source, error) {
	if size%champsimRecSize != 0 {
		return nil, fmt.Errorf("champsim trace size %d not a multiple of %d-byte records", size, champsimRecSize)
	}
	total, err := checkCount(uint64(size/champsimRecSize), "champsim count")
	if err != nil {
		return nil, err
	}
	return &champsimSource{f: f, total: total}, nil
}

// Next implements Source. It reads one record past the requested range when
// available so taken-branch targets resolve to the successor ip.
func (s *champsimSource) Next(dst []Inst) (int, error) {
	if s.pos >= s.total {
		return 0, io.EOF
	}
	n := len(dst)
	if left := s.total - s.pos; n > left {
		n = left
	}
	read := n
	if s.pos+n < s.total {
		read = n + 1 // lookahead for the last decoded record's target
	}
	need := read * champsimRecSize
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	b := s.buf[:need]
	if _, err := s.f.ReadAt(b, int64(s.pos)*champsimRecSize); err != nil {
		return 0, fmt.Errorf("trace: champsim read at record %d: %w", s.pos, err)
	}
	for i := 0; i < n; i++ {
		var nextIP uint64
		if i+1 < read {
			nextIP = binary.LittleEndian.Uint64(b[(i+1)*champsimRecSize:])
		}
		dst[i] = decodeChampSim(b[i*champsimRecSize:], nextIP)
	}
	s.pos += n
	return n, nil
}

// decodeChampSim maps one external record onto the internal Inst model.
func decodeChampSim(rec []byte, nextIP uint64) Inst {
	ip := binary.LittleEndian.Uint64(rec[0:])
	storeAddr := binary.LittleEndian.Uint64(rec[16:]) // dst_mem[0]
	loadAddr := binary.LittleEndian.Uint64(rec[32:])  // src_mem[0]
	in := Inst{
		PC:   ip,
		Dst:  rec[10] % NumRegs,
		Src1: rec[12] % NumRegs,
		Src2: rec[13] % NumRegs,
	}
	switch {
	case rec[8] != 0: // is_branch
		in.Class = ClassBranch
		in.Taken = rec[9] != 0
		if in.Taken && nextIP != 0 {
			in.Target = nextIP
		} else {
			in.Target = ip + 4
		}
	case loadAddr != 0:
		in.Class = ClassLoad
		in.Addr = loadAddr
	case storeAddr != 0:
		in.Class = ClassStore
		in.Addr = storeAddr
	default:
		in.Class = ClassALU
	}
	return in
}

// Len implements Source.
func (s *champsimSource) Len() int { return s.total }

// Close releases the file.
func (s *champsimSource) Close() error { return s.f.Close() }
