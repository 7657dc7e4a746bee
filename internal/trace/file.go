package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// OpenSource opens a trace file as a streaming Source, sniffing the format:
// LBP2 by magic, ChampSim-style external traces by extension
// (.champsim / .cst). Both read the file with positioned reads at fixed
// memory. The returned source holds the open file; release it with
// CloseSource.
func OpenSource(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	src, err := openSourceFile(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", filepath.Base(path), err)
	}
	return src, nil
}

// openSourceFile sniffs f and builds the right source. On error the caller
// closes f.
func openSourceFile(f *os.File) (Source, error) {
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
		return openLBP2(f, size)
	}
	if ext := strings.ToLower(filepath.Ext(f.Name())); ext == ".champsim" || ext == ".cst" {
		return openChampSim(f, size)
	}
	return nil, errors.New("unrecognized trace format (not LBP2 or .champsim/.cst)")
}
