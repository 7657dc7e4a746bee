package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// OpenMode selects the ingestion backend for OpenSource.
type OpenMode int

const (
	// OpenAuto maps LBP2 files when the platform supports it and falls back
	// to positioned file reads otherwise.
	OpenAuto OpenMode = iota
	// OpenFile forces the buffered-file backend (positioned reads).
	OpenFile
	// OpenMmap forces the memory-mapped backend; it errors on platforms
	// without mmap support or formats without a seekable index.
	OpenMmap
)

// errMmapUnsupported is returned by the stub mapper on platforms without
// mmap support (see mmap_other.go).
var errMmapUnsupported = errors.New("trace: mmap not supported on this platform")

// OpenSource opens a trace file as a streaming Source, sniffing the format:
// LBP2 by magic, ChampSim-style external traces by extension
// (.champsim / .cst). The returned source holds an open file or mapping;
// release it with CloseSource.
func OpenSource(path string) (Source, error) { return OpenSourceMode(path, OpenAuto) }

// OpenSourceMode is OpenSource with an explicit backend choice.
func OpenSourceMode(path string, mode OpenMode) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	src, err := openSourceFile(f, mode)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", filepath.Base(path), err)
	}
	return src, nil
}

// openSourceFile sniffs f and builds the right source. On error the caller
// closes f.
func openSourceFile(f *os.File, mode OpenMode) (Source, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, fmt.Errorf("read magic: %w", err)
	}
	if binary.LittleEndian.Uint32(magic[:]) == lbp2Magic {
		return openLBP2File(f, size, mode)
	}
	if ext := strings.ToLower(filepath.Ext(f.Name())); ext == ".champsim" || ext == ".cst" {
		if mode == OpenMmap {
			return nil, errors.New("mmap backend requires LBP2")
		}
		return openChampSim(f, size)
	}
	return nil, errors.New("unrecognized trace format (not LBP2 or .champsim/.cst)")
}

// openLBP2File parses the seekable layout and wires the chosen chunk loader.
func openLBP2File(f *os.File, size int64, mode OpenMode) (Source, error) {
	layout, err := parseLBP2Layout(f, size)
	if err != nil {
		return nil, err
	}
	if mode == OpenAuto || mode == OpenMmap {
		data, unmap, err := mmapFile(f, size)
		if err == nil {
			// The mapping outlives the descriptor; close it now so the
			// source holds exactly one resource.
			f.Close()
			return newLBP2Source(layout, &mmapChunks{data: data, layout: layout, unmap: unmap}), nil
		}
		if mode == OpenMmap {
			return nil, err
		}
	}
	return newLBP2Source(layout, &fileChunks{ra: f, layout: layout}), nil
}
