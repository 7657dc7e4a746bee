package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
)

// checkpointVersion guards the JSON payload layout; bump it when the layout
// of Checkpoint changes incompatibly.
const checkpointVersion = 1

// The on-disk checkpoint is a CRC-stamped envelope:
//
//	LBPCKPT2 <crc32c-hex> <payload-bytes>\n
//	<payload: indented JSON of Checkpoint, exactly payload-bytes long>
//
// The header pins both the payload length (torn/truncated writes are
// detected even when the tail still parses as JSON) and a CRC-32C over the
// payload (bit flips are detected). Files beginning with '{' are the
// pre-envelope legacy format and still load.
const envelopeMagic = "LBPCKPT2"

// crcTable is the Castagnoli polynomial: hardware-accelerated on amd64 and
// arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports an unreadable checkpoint: where in the file the
// damage was detected and why, plus where the damaged file was preserved
// (if it was). A corrupt checkpoint never permanently blocks resume — the
// loader moves it aside to <path>.corrupt and falls back to the previous
// generation (<path>.1) when one is valid.
type CorruptError struct {
	Path        string
	Offset      int64  // byte offset where the corruption was detected
	Cause       error  // torn write, CRC mismatch, JSON syntax error, ...
	PreservedAs string // where the damaged file was moved, "" if not moved
}

// Error renders the path, offset, cause and preservation note.
func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("checkpoint %s: corrupt at byte %d: %v", e.Path, e.Offset, e.Cause)
	if e.PreservedAs != "" {
		msg += fmt.Sprintf(" (damaged file preserved as %s)", e.PreservedAs)
	}
	return msg
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *CorruptError) Unwrap() error { return e.Cause }

// ExperimentOutcome is one completed experiment as persisted in a sweep
// checkpoint: its rendered output (including any failure summary) and the
// original wall-clock cost, so a resumed sweep replays identical output.
type ExperimentOutcome struct {
	Output  string  `json:"output"`
	Seconds float64 `json:"seconds"`
}

// Checkpoint is the resume state of one lbpsweep invocation. Completed
// experiments are flushed after each experiment finishes; a restarted sweep
// with matching options skips them and replays their stored output.
type Checkpoint struct {
	Version   int                          `json:"version"`
	Insts     int                          `json:"insts"`
	Warmup    int                          `json:"warmup"`
	Quick     bool                         `json:"quick"`
	Completed map[string]ExperimentOutcome `json:"completed"`

	// Note, when non-empty, describes a recovery the loader performed
	// (corrupt main checkpoint replaced by the previous generation, ...).
	// It is diagnostic only and never persisted.
	Note string `json:"-"`
}

// NewCheckpoint returns an empty checkpoint stamped with the options that
// parameterize experiment results.
func NewCheckpoint(o Options) *Checkpoint {
	return &Checkpoint{
		Version:   checkpointVersion,
		Insts:     o.Insts,
		Warmup:    o.Warmup,
		Quick:     o.Quick,
		Completed: map[string]ExperimentOutcome{},
	}
}

// Matches reports whether results recorded under the checkpoint's options
// are interchangeable with results produced under o. Worker count and
// timeouts are deliberately excluded: outcomes are deterministic in both.
func (c *Checkpoint) Matches(o Options) bool {
	return c.Insts == o.Insts && c.Warmup == o.Warmup && c.Quick == o.Quick
}

// Done reports the stored outcome for an experiment id, if completed.
func (c *Checkpoint) Done(id string) (ExperimentOutcome, bool) {
	out, ok := c.Completed[id]
	return out, ok
}

// Record marks an experiment as completed.
func (c *Checkpoint) Record(id string, out ExperimentOutcome) {
	c.Completed[id] = out
}

// prevGeneration names the rotated previous checkpoint generation.
func prevGeneration(path string) string { return path + ".1" }

// LoadCheckpoint reads a checkpoint with automatic crash recovery. The
// resolution order is:
//
//  1. <path> valid → use it.
//  2. <path> missing → <path>.1 valid (crash between rotation and rename)
//     → use the previous generation; otherwise start fresh (nil, nil).
//  3. <path> corrupt (torn write, CRC mismatch, unparsable) → preserve the
//     damaged file as <path>.corrupt, then fall back to <path>.1 when that
//     generation is valid; the returned checkpoint's Note describes the
//     recovery. A corrupt <path>.1 is itself preserved as <path>.1.corrupt.
//     With both generations damaged the *CorruptError is returned — it
//     names the preserved file, the byte offset and both causes, and the
//     next invocation starts fresh (every damaged file is out of the way,
//     so a resume can never proceed from garbage).
//
// A version-mismatched (but intact) file is an error, not corruption: it is
// left in place for the caller to decide about.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	c, err := loadGeneration(path)
	if err == nil && c != nil {
		return c, nil
	}
	if err == nil {
		// Main checkpoint missing: a crash window between rotating the old
		// generation aside and renaming the new one in leaves only <path>.1.
		if prev, perr := loadPrevGeneration(path); perr == nil && prev != nil {
			prev.Note = fmt.Sprintf("checkpoint %s missing; resumed from previous generation %s",
				path, prevGeneration(path))
			return prev, nil
		}
		// No usable generation at all (a damaged <path>.1 was quarantined by
		// loadPrevGeneration): start fresh.
		return nil, nil
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		return nil, err // I/O or version error: surface as-is
	}
	preserved := path + ".corrupt"
	if rerr := os.Rename(path, preserved); rerr == nil {
		ce.PreservedAs = preserved
	}
	prev, perr := loadPrevGeneration(path)
	if perr == nil && prev != nil {
		prev.Note = fmt.Sprintf("recovered from previous generation %s after: %v",
			prevGeneration(path), ce)
		return prev, nil
	}
	if perr != nil {
		// Both generations damaged: every damaged file is quarantined (the
		// next invocation starts fresh, never resumes from garbage) and the
		// error names both causes.
		ce.Cause = fmt.Errorf("%w; previous generation also unusable: %v", ce.Cause, perr)
	}
	return nil, ce
}

// loadPrevGeneration loads <path>.1 with the same quarantine discipline as
// the main generation: a corrupt previous generation is moved aside to
// <path>.1.corrupt so no damaged file remains anywhere on the recovery path
// — a later Save/Load cycle must never rotate over or resume from garbage.
func loadPrevGeneration(path string) (*Checkpoint, error) {
	prevPath := prevGeneration(path)
	prev, err := loadGeneration(prevPath)
	if err == nil {
		return prev, nil
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		preserved := prevPath + ".corrupt"
		if rerr := os.Rename(prevPath, preserved); rerr == nil {
			ce.PreservedAs = preserved
		}
	}
	return nil, err
}

// loadGeneration reads one checkpoint file. A missing file returns
// (nil, nil); damage returns a *CorruptError with the byte offset and
// cause.
func loadGeneration(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return decodeCheckpoint(path, data)
}

// decodeCheckpoint parses an envelope (or legacy bare-JSON) checkpoint.
func decodeCheckpoint(path string, data []byte) (*Checkpoint, error) {
	corrupt := func(off int64, format string, args ...any) (*Checkpoint, error) {
		return nil, &CorruptError{Path: path, Offset: off, Cause: fmt.Errorf(format, args...)}
	}
	if len(data) == 0 {
		return corrupt(0, "empty file (torn write)")
	}
	payload := data
	var headerLen int64
	if data[0] != '{' { // envelope format; '{' is the legacy bare JSON
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 || nl > 64 {
			return corrupt(0, "malformed envelope header (no newline)")
		}
		fields := bytes.Fields(data[:nl])
		if len(fields) != 3 || string(fields[0]) != envelopeMagic {
			return corrupt(0, "malformed envelope header %q", data[:nl])
		}
		wantCRC, err := strconv.ParseUint(string(fields[1]), 16, 32)
		if err != nil {
			return corrupt(int64(len(fields[0])+1), "malformed CRC field: %v", err)
		}
		wantLen, err := strconv.ParseInt(string(fields[2]), 10, 64)
		if err != nil {
			return corrupt(int64(nl), "malformed length field: %v", err)
		}
		headerLen = int64(nl + 1)
		payload = data[headerLen:]
		if int64(len(payload)) != wantLen {
			return corrupt(int64(len(data)),
				"torn write: payload is %d bytes, header promises %d", len(payload), wantLen)
		}
		if got := crc32.Checksum(payload, crcTable); uint32(wantCRC) != got {
			return corrupt(headerLen,
				"CRC mismatch: header %08x, payload %08x", uint32(wantCRC), got)
		}
	}
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		off := headerLen
		var syn *json.SyntaxError
		if errors.As(err, &syn) {
			off += syn.Offset
		}
		return corrupt(off, "invalid JSON: %v", err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint %s: version %d, want %d (delete it to start fresh)",
			path, c.Version, checkpointVersion)
	}
	if c.Completed == nil {
		c.Completed = map[string]ExperimentOutcome{}
	}
	return &c, nil
}

// Save writes the checkpoint crash-safely: the CRC-stamped envelope goes to
// a temp file which is fsynced and renamed over the target, and the
// previous checkpoint is first rotated aside to <path>.1 so there are
// always up to two generations on disk. A crash at any point leaves at
// least one valid generation for LoadCheckpoint to recover.
func (c *Checkpoint) Save(path string) error {
	payload, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	data := fmt.Appendf(nil, "%s %08x %d\n", envelopeMagic,
		crc32.Checksum(payload, crcTable), len(payload))
	data = append(data, payload...)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.json")
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	// Rotate the current generation aside. A crash after this rename and
	// before the next leaves no <path>; LoadCheckpoint then resumes from
	// <path>.1.
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, prevGeneration(path)); err != nil {
			return fmt.Errorf("checkpoint %s: rotating previous generation: %w", path, err)
		}
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return nil
}
