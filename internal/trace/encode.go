package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format: a fixed header followed by fixed-width records.
// The format exists so lbptrace can persist generated workloads and the
// simulator can replay them without regenerating.

const (
	traceMagic   = uint32(0x4c425031) // "LBP1"
	traceVersion = uint32(1)
	recordSize   = 8 + 8 + 8 + 1 + 1 + 3 // PC, Addr, Target, class, taken, regs
)

// WriteTrace serializes tr to w in the LBP1 binary format.
func WriteTrace(w io.Writer, tr []Inst) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(tr)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	var rec [recordSize]byte
	for i := range tr {
		in := &tr[i]
		binary.LittleEndian.PutUint64(rec[0:], in.PC)
		binary.LittleEndian.PutUint64(rec[8:], in.Addr)
		binary.LittleEndian.PutUint64(rec[16:], in.Target)
		rec[24] = byte(in.Class)
		if in.Taken {
			rec[25] = 1
		} else {
			rec[25] = 0
		}
		rec[26] = in.Dst
		rec[27] = in.Src1
		rec[28] = in.Src2
		if _, err := bw.Write(rec[:]); err != nil {
			return fmt.Errorf("trace: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Inst, error) { return ReadTraceInto(nil, r) }

// maxPrealloc caps the records ReadTraceInto reserves before reading them
// (2 MiB of Inst).
const maxPrealloc = 1 << 16

// ReadTraceInto is ReadTrace decoding into dst's storage: when dst has
// capacity for the stored record count no allocation happens. The returned
// slice aliases dst's array when capacity sufficed.
func ReadTraceInto(dst []Inst, r io.Reader) ([]Inst, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != traceMagic {
		return nil, errors.New("trace: bad magic (not an LBP1 trace)")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	n := int(binary.LittleEndian.Uint32(hdr[8:]))
	tr := dst[:0]
	if cap(dst) < n {
		// The record count is untrusted: reserve at most maxPrealloc
		// records and let append grow with the records actually read, so a
		// corrupt count fails on the short stream instead of allocating it.
		tr = make([]Inst, 0, min(n, maxPrealloc))
	}
	var rec [recordSize]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: read record %d: %w", i, err)
		}
		if rec[24] >= byte(numClasses) {
			return nil, fmt.Errorf("trace: record %d: bad class %d", i, rec[24])
		}
		tr = append(tr, Inst{
			PC:     binary.LittleEndian.Uint64(rec[0:]),
			Addr:   binary.LittleEndian.Uint64(rec[8:]),
			Target: binary.LittleEndian.Uint64(rec[16:]),
			Class:  Class(rec[24]),
			Taken:  rec[25] != 0,
			Dst:    rec[26],
			Src1:   rec[27],
			Src2:   rec[28],
		})
	}
	return tr, nil
}
