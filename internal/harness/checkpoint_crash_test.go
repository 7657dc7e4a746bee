package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// savedCheckpoint builds and saves a checkpoint with the given completed
// experiment ids, returning its path.
func savedCheckpoint(t testing.TB, path string, ids ...string) *Checkpoint {
	t.Helper()
	ck := NewCheckpoint(Options{Insts: 20_000, Quick: true})
	for _, id := range ids {
		ck.Record(id, ExperimentOutcome{Output: "output of " + id + "\n", Seconds: 1})
		if err := ck.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	return ck
}

// TestCheckpointTruncationRecovers: a mid-file truncation (torn write) of
// the newest generation is detected via the envelope's length pin, the
// damaged file is preserved as <path>.corrupt, and the loader falls back to
// the previous generation — no completed result recorded there is lost.
func TestCheckpointTruncationRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	savedCheckpoint(t, path, "table1", "fig4") // two saves → two generations

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("truncated checkpoint did not recover: %v", err)
	}
	if got.Note == "" || !strings.Contains(got.Note, prevGeneration(path)) {
		t.Fatalf("recovery note missing or wrong: %q", got.Note)
	}
	// The previous generation holds everything up to the penultimate save:
	// zero completed results lost from that generation.
	if _, ok := got.Done("table1"); !ok {
		t.Fatal("recovered generation lost a completed experiment")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("damaged file not preserved: %v", err)
	}
}

// TestCheckpointCRCFlipDetected: a single flipped payload byte fails the
// CRC-32C check with a *CorruptError naming the byte offset and cause, and
// the damaged file is moved aside so the next invocation starts fresh.
func TestCheckpointCRCFlipDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	savedCheckpoint(t, path, "table1") // one save → no previous generation

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40 // flip one payload bit; JSON may still parse
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = LoadCheckpoint(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.Offset <= 0 {
		t.Fatalf("corrupt error lacks a byte offset: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "CRC") && !strings.Contains(ce.Error(), "JSON") {
		t.Fatalf("corrupt error does not name the cause: %v", ce)
	}
	if ce.PreservedAs != path+".corrupt" {
		t.Fatalf("damaged file preserved as %q, want %q", ce.PreservedAs, path+".corrupt")
	}
	if _, err := os.Stat(ce.PreservedAs); err != nil {
		t.Fatalf("preserved file missing: %v", err)
	}
	// The damaged file is out of the way: a rerun starts fresh, not stuck.
	if ck, err := LoadCheckpoint(path); ck != nil || err != nil {
		t.Fatalf("after preservation: got (%v, %v), want fresh start", ck, err)
	}
}

// TestCheckpointMissingMainUsesPrev: the crash window between rotating the
// old generation aside and renaming the new one in leaves only <path>.1;
// the loader resumes from it.
func TestCheckpointMissingMainUsesPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	savedCheckpoint(t, path, "table1", "fig4")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	got, err := LoadCheckpoint(path)
	if err != nil || got == nil {
		t.Fatalf("missing main with valid previous generation: got (%v, %v)", got, err)
	}
	if _, ok := got.Done("table1"); !ok {
		t.Fatal("previous generation lost a completed experiment")
	}
	if !strings.Contains(got.Note, "previous generation") {
		t.Fatalf("recovery note missing: %q", got.Note)
	}
}

// TestCheckpointGenerationRotation: each Save rotates the prior file to
// <path>.1, so two valid generations coexist and the older one trails the
// newer by exactly one experiment.
func TestCheckpointGenerationRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	savedCheckpoint(t, path, "table1", "fig4", "fig7a")

	newest, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(newest.Completed) != 3 {
		t.Fatalf("newest generation has %d entries, want 3", len(newest.Completed))
	}
	prev, err := LoadCheckpoint(prevGeneration(path))
	if err != nil || prev == nil {
		t.Fatalf("previous generation unreadable: (%v, %v)", prev, err)
	}
	if len(prev.Completed) != 2 {
		t.Fatalf("previous generation has %d entries, want 2", len(prev.Completed))
	}
}

// TestCheckpointLegacyBareJSON: a bare-JSON checkpoint (the format before
// the envelope) is corrupt, not a resumable state: nothing pins its length
// or CRC, so a torn or bit-flipped file that still parses would resume
// silently. It is quarantined as <path>.corrupt like any damaged file, and
// the loader recovers from the previous generation.
func TestCheckpointLegacyBareJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	savedCheckpoint(t, path, "table1", "fig4") // two saves → two generations
	legacy := []byte(`{"version": 1, "insts": 20000, "quick": true,
		"completed": {"fig8": {"output": "legacy\n", "seconds": 2}}}`)
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	var ce *CorruptError
	if _, err := decodeCheckpoint(path, legacy); !errors.As(err, &ce) {
		t.Fatalf("bare JSON decoded with %v, want a *CorruptError", err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("bare JSON blocked recovery: %v", err)
	}
	if !strings.Contains(got.Note, prevGeneration(path)) {
		t.Fatalf("recovery note missing or wrong: %q", got.Note)
	}
	if _, ok := got.Done("table1"); !ok {
		t.Fatal("recovered generation lost a completed experiment")
	}
	if _, ok := got.Done("fig8"); ok {
		t.Fatal("the bare-JSON file's outcome was resumed")
	}
	if kept, err := os.ReadFile(path + ".corrupt"); err != nil || string(kept) != string(legacy) {
		t.Fatalf("bare-JSON file not preserved as %s.corrupt: %v", path, err)
	}
}

// TestCheckpointBothGenerationsDamaged exercises the worst rotation outcome:
// the primary AND the rotated .1 generation are both corrupt. Recovery must
// fall back cleanly — quarantine both damaged files, report both causes,
// and let the next invocation start fresh — never resume from garbage.
func TestCheckpointBothGenerationsDamaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	savedCheckpoint(t, path, "table1", "fig4") // two saves → two generations

	// Damage both generations differently: truncate the primary (torn
	// write), flip a payload byte in the rotated generation (bit rot).
	for _, d := range []struct {
		p      string
		damage func([]byte) []byte
	}{
		{path, func(b []byte) []byte { return b[:len(b)/2] }},
		{prevGeneration(path), func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }},
	} {
		data, err := os.ReadFile(d.p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d.p, d.damage(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, err := LoadCheckpoint(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError with both generations damaged, got %v", err)
	}
	if !strings.Contains(ce.Error(), "previous generation also unusable") {
		t.Fatalf("error does not report the damaged previous generation: %v", ce)
	}
	// Both damaged files are quarantined; neither remains on the resume path.
	for _, p := range []string{path, prevGeneration(path)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("damaged file %s still on the resume path (stat err: %v)", p, err)
		}
		if _, err := os.Stat(p + ".corrupt"); err != nil {
			t.Fatalf("damaged file not preserved as %s.corrupt: %v", p, err)
		}
	}

	// Recovery is clean: the next load starts fresh instead of resuming from
	// garbage, and a full save/load round-trip works on the scrubbed path.
	ck, err := LoadCheckpoint(path)
	if ck != nil || err != nil {
		t.Fatalf("after quarantine: got (%v, %v), want fresh start", ck, err)
	}
	fresh := NewCheckpoint(Options{Insts: 20_000, Quick: true})
	fresh.Record("fig8", ExperimentOutcome{Output: "fresh\n", Seconds: 1})
	if err := fresh.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil || got == nil {
		t.Fatalf("post-recovery save/load failed: (%v, %v)", got, err)
	}
	if _, ok := got.Done("table1"); ok {
		t.Fatal("resumed a result from a damaged generation")
	}
	if out, ok := got.Done("fig8"); !ok || out.Output != "fresh\n" {
		t.Fatalf("fresh checkpoint did not round-trip: %+v ok=%v", out, ok)
	}
}

// TestCheckpointMissingMainCorruptPrev: the main generation is gone and the
// rotated one is damaged — the loader quarantines the damaged .1 and starts
// fresh rather than resuming from garbage or failing forever.
func TestCheckpointMissingMainCorruptPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	savedCheckpoint(t, path, "table1", "fig4")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	prevPath := prevGeneration(path)
	data, err := os.ReadFile(prevPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prevPath, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(path)
	if ck != nil || err != nil {
		t.Fatalf("got (%v, %v), want clean fresh start", ck, err)
	}
	if _, err := os.Stat(prevPath + ".corrupt"); err != nil {
		t.Fatalf("damaged previous generation not quarantined: %v", err)
	}
}

// TestCheckpointEnvelopeHeaderDamage: garbage where the envelope header
// should be is corruption at offset 0, not a silent fresh start.
func TestCheckpointEnvelopeHeaderDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := os.WriteFile(path, []byte("LBPCKPT2 zzzz\n{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError for damaged header, got %v", err)
	}
}

// FuzzCheckpointEnvelope hardens checkpoint decoding: arbitrary bytes are
// rejected with a *CorruptError or the version error, never a panic, and any
// checkpoint accepted survives Save → LoadCheckpoint unchanged.
func FuzzCheckpointEnvelope(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	savedCheckpoint(f, path, "table1", "fig4")
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":1,"insts":20000,"quick":true,"completed":{"fig8":{"output":"x","seconds":2}}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte("LBPCKPT2 zzzz\n{}"))
	f.Add([]byte{})
	versionErr := regexp.MustCompile(fmt.Sprintf(
		`^checkpoint fuzz\.ckpt: version -?\d+, want %d \(delete it to start fresh\)$`, checkpointVersion))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint("fuzz.ckpt", data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) && !versionErr.MatchString(err.Error()) {
				t.Fatalf("rejected with neither *CorruptError nor the version error: %v", err)
			}
			return
		}
		path := filepath.Join(t.TempDir(), "state.ckpt")
		if err := ck.Save(path); err != nil {
			t.Fatal(err)
		}
		back, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("saved checkpoint does not load: %v", err)
		}
		if !reflect.DeepEqual(back, ck) {
			t.Fatalf("Save → LoadCheckpoint changed the checkpoint:\n%+v\n%+v", ck, back)
		}
	})
}
