//go:build !linux && !darwin

package trace

import "os"

// mmapFile on platforms without a wired mmap path: openAuto falls back to
// positioned file reads, openMmap surfaces the error.
func mmapFile(f *os.File, size int64) ([]byte, func() error, error) {
	return nil, nil, errMmapUnsupported
}
