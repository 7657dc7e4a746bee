package harness

import (
	"reflect"
	"strings"
	"testing"

	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/repair"
)

// mustSpecFor resolves a configuration name a test knows to be valid.
func mustSpecFor(name string) Spec {
	s, err := SpecFor(name)
	if err != nil {
		panic(err)
	}
	return s
}

// relabel returns s under another label, TAGE and oracle flag: the parts of
// a named spec that no typed constructor sets.
func relabel(s Spec, label string, t tage.Config, oracle bool) Spec {
	s.Label, s.Tage, s.Oracle = label, t, oracle
	return s
}

// grammarRows is the configuration-name grammar's table: every label the
// sweep runs (the 34 of `lbpsweep -v`) and a few off-default ones, each
// built by the typed constructor it names.
func grammarRows() []Spec {
	c, kb8, kb57 := loop.Loop128(), tage.KB8(), tage.KB57()
	p := func(ckpt, write int) repair.Ports { return repair.Ports{CkptRead: ckpt, BHTWrite: write} }
	yp := func(mk func(lp loop.LocalPredictor) repair.Scheme) SchemeMaker {
		return func() repair.Scheme { return mk(loop.NewYehPatt(loop.YehPatt128())) }
	}
	return []Spec{
		BaselineSpec(),
		relabel(PerfectSpec(c), "oracle-local", kb8, true),
		NoRepairSpec(c),
		PerfectSpec(loop.Loop64()),
		PerfectSpec(c),
		PerfectSpec(loop.Loop256()),
		RetireUpdateSpec(c),
		BackwardWalkSpec(c, 64, p(64, 64)),
		BackwardWalkSpec(c, 32, p(8, 8)),
		BackwardWalkSpec(c, 32, p(4, 4)),
		BackwardWalkSpec(c, 16, p(4, 4)),
		SnapshotSpec(c, 64, p(64, 64)),
		SnapshotSpec(c, 32, p(8, 8)),
		SnapshotSpec(c, 16, p(8, 8)),
		ForwardWalkSpec(c, 64, p(8, 4), false),
		ForwardWalkSpec(c, 64, p(4, 2), false),
		ForwardWalkSpec(c, 32, p(8, 4), false),
		ForwardWalkSpec(c, 32, p(4, 2), false),
		ForwardWalkSpec(c, 32, p(4, 2), true),
		MultiStageSpec(c, 32, true),
		MultiStageSpec(c, 32, false),
		LimitedPCSpec(c, 2, 2, false),
		LimitedPCSpec(c, 4, 4, false),
		LimitedPCSpec(c, 8, 4, false),
		LimitedPCSpec(c, 4, 4, true),
		relabel(BaselineSpec(), "tage9", tage.KB9(), false),
		relabel(BaselineSpec(), "tage57", kb57, false),
		relabel(PerfectSpec(c), "tage57-perfect-CBPw-Loop128", kb57, false),
		relabel(ForwardWalkSpec(c, 32, p(4, 2), true), "tage57-forward-32-4-2-coalesce", kb57, false),
		relabel(MultiStageSpec(c, 32, true), "tage57-multistage-shared-pt", kb57, false),
		relabel(LimitedPCSpec(c, 4, 4, false), "tage57-limited-4pc", kb57, false),
		specWith("yehpatt-none", yp(func(lp loop.LocalPredictor) repair.Scheme { return repair.NewNoneFor(lp) })),
		specWith("yehpatt-forward", yp(func(lp loop.LocalPredictor) repair.Scheme {
			return repair.NewForwardWalkFor(lp, 32, p(4, 2), true)
		})),
		specWith("yehpatt-perfect", yp(func(lp loop.LocalPredictor) repair.Scheme { return repair.NewPerfectFor(lp) })),
		// Off the sweep: the loop size, the TAGE size and every bound.
		relabel(ForwardWalkSpec(loop.Loop64(), 32, p(4, 2), true), "forward-32-4-2-coalesce-CBPw-Loop64", kb8, false),
		relabel(PerfectSpec(loop.Loop256()), "oracle-local-CBPw-Loop256", kb8, true),
		relabel(LimitedPCSpec(loop.Loop256(), 1, 1, true), "tage9-limited-1pc-invalidate-CBPw-Loop256", tage.KB9(), false),
		relabel(NoRepairSpec(loop.Loop64()), "tage57-no-repair-CBPw-Loop64", kb57, false),
		SnapshotSpec(c, maxSize, p(1, maxSize)),
		LimitedPCSpec(c, maxSize, 4, false),
	}
}

// TestSpecFor: every row's label parses to the spec its constructor built —
// same label, TAGE, oracle flag, core, scheme name and storage.
func TestSpecFor(t *testing.T) {
	for _, want := range grammarRows() {
		got, err := SpecFor(want.Label)
		if err != nil {
			t.Errorf("%s: %v", want.Label, err)
			continue
		}
		sameSpec(t, want.Label, got, want)
	}
}

// TestSpecLabelsUnique: no two rows of the grammar's table share a label,
// so a name never denotes two configurations.
func TestSpecLabelsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range grammarRows() {
		if s.Label == "" || seen[s.Label] {
			t.Fatalf("bad or duplicate label %q", s.Label)
		}
		seen[s.Label] = true
	}
}

// sameSpec fails unless got and want agree on everything a name selects.
func sameSpec(t *testing.T, name string, got, want Spec) {
	t.Helper()
	if got.Label != want.Label || got.Oracle != want.Oracle ||
		!reflect.DeepEqual(got.Tage, want.Tage) || !reflect.DeepEqual(got.Core, want.Core) {
		t.Errorf("%s: got label %q %s oracle=%v, want %q %s oracle=%v",
			name, got.Label, got.Tage.Name, got.Oracle, want.Label, want.Tage.Name, want.Oracle)
	}
	if (got.Scheme == nil) != (want.Scheme == nil) {
		t.Errorf("%s: scheme present %v, want %v", name, got.Scheme != nil, want.Scheme != nil)
		return
	}
	if got.Scheme == nil {
		return
	}
	g, w := got.Scheme(), want.Scheme()
	if g.Name() != w.Name() || g.StorageBits() != w.StorageBits() {
		t.Errorf("%s: scheme %s (%d bits), want %s (%d bits)",
			name, g.Name(), g.StorageBits(), w.Name(), w.StorageBits())
	}
}

// TestSpecForShortForms: a name may leave the paper's default parameters
// off, and denotes the spec of its canonical label.
func TestSpecForShortForms(t *testing.T) {
	for short, label := range map[string]string{
		"perfect":                       "perfect-CBPw-Loop128",
		"no-repair":                     "no-repair-CBPw-Loop128",
		"retire-update":                 "retire-update-CBPw-Loop128",
		"snapshot":                      "snapshot-32-8-8",
		"backward":                      "backward-32-4-4",
		"forward":                       "forward-32-4-2",
		"forward-coalesce":              "forward-32-4-2-coalesce",
		"multistage":                    "multistage-shared-pt",
		"tage57-perfect":                "tage57-perfect-CBPw-Loop128",
		"tage9-forward":                 "tage9-forward-32-4-2",
		"forward-32-4-2-CBPw-Loop128":   "forward-32-4-2",
		"oracle-local-CBPw-Loop128":     "oracle-local",
		"limited-8pc-CBPw-Loop128":      "limited-8pc",
		"forward-coalesce-CBPw-Loop256": "forward-32-4-2-coalesce-CBPw-Loop256",
		"tage57-snapshot-CBPw-Loop64":   "tage57-snapshot-32-8-8-CBPw-Loop64",
	} {
		got, err := SpecFor(short)
		if err != nil {
			t.Errorf("%s: %v", short, err)
			continue
		}
		sameSpec(t, short, got, mustSpecFor(label))
	}
}

// TestSpecForRejects: the retired registry's names and aliases, malformed
// names and numbers outside 1..maxSize are errors that list the grammar —
// never a panic, and never a scheme whose constructor would panic.
func TestSpecForRejects(t *testing.T) {
	for _, name := range []string{
		// registry names and aliases
		"forward-walk", "backward-walk", "limited-pc", "baseline", "none", "retire",
		"oracle", "limited", "limited4", "multistage-split", "yehpatt",
		// malformed
		"", "-", "tage8", "tage57-", "tage57-tage", "tage9-tage57-perfect", "TAGE57",
		"forward-32-4", "forward-32-4-2-1", "forward-coalesce-coalesce", "snapshot-coalesce",
		"forward-+32-4-2", "forward-032-4-2", "forward-32--4-2", "limited-4", "limited-pc4",
		"limited-4pc-leave", "perfect-CBPw-Loop32", "perfect-CBPw-Loop128-CBPw-Loop64",
		"CBPw-Loop64", "yehpatt-none-CBPw-Loop64", "yehpatt-backward", " forward",
		// out of bounds
		"forward-0-4-2", "forward-32-0-2", "forward-32-4-0", "snapshot-1025-8-8",
		"backward-32-4-1025", "limited-0pc", "limited-1025pc", "limited-99999999999999999999pc",
	} {
		s, err := SpecFor(name)
		if err == nil {
			t.Errorf("%q accepted as %q", name, s.Label)
			continue
		}
		if !strings.Contains(err.Error(), "limited-Mpc[-invalidate]") {
			t.Errorf("%q: error does not list the grammar: %v", name, err)
		}
	}
}

// FuzzSpecFor: SpecFor never panics, and an accepted name's spec validates
// (its scheme constructor does not panic) and carries a label that parses
// back to the same spec.
func FuzzSpecFor(f *testing.F) {
	for _, seed := range []string{
		"forward-coalesce", "tage57-limited-4pc-invalidate-CBPw-Loop64", "yehpatt-perfect",
		"snapshot-1024-1-1", "oracle-local-CBPw-Loop256", "forward-0-4-2", "tage9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := SpecFor(name)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		back, err := SpecFor(s.Label)
		if err != nil {
			t.Fatalf("%q: label %q does not parse: %v", name, s.Label, err)
		}
		sameSpec(t, name, back, s)
	})
}
