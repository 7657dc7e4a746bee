package harness

import (
	"fmt"
	"strconv"
	"strings"

	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/core"
	"localbp/internal/repair"
)

// The configurations evaluated by the paper, as typed spec constructors and
// as names. Each call builds fresh state; specs are safe to run repeatedly.

// BaselineSpec is the TAGE-only Table 2 baseline.
func BaselineSpec() Spec {
	return Spec{Label: "tage", Tage: tage.KB8(), Core: core.DefaultConfig()}
}

// specWith returns a Table 2 core + TAGE-8KB spec carrying the given scheme.
func specWith(label string, mk SchemeMaker) Spec {
	s := BaselineSpec()
	s.Label = label
	s.Scheme = mk
	return s
}

// PerfectSpec is CBPw-Loop with perfect instantaneous repair.
func PerfectSpec(cfg loop.Config) Spec {
	return specWith("perfect-"+cfg.Name, func() repair.Scheme { return repair.NewPerfect(cfg) })
}

// NoRepairSpec is CBPw-Loop without any BHT repair (paper §2.7).
func NoRepairSpec(cfg loop.Config) Spec {
	return specWith("no-repair-"+cfg.Name, func() repair.Scheme { return repair.NewNone(cfg) })
}

// RetireUpdateSpec updates the BHT only at retirement (paper §6.2).
func RetireUpdateSpec(cfg loop.Config) Spec {
	return specWith("retire-update-"+cfg.Name, func() repair.Scheme { return repair.NewRetireUpdate(cfg) })
}

// SnapshotSpec is the prior-art snapshot queue with an M-N-P configuration.
func SnapshotSpec(cfg loop.Config, entries int, ports repair.Ports) Spec {
	return specWith(fmt.Sprintf("snapshot-%d-%d-%d", entries, ports.CkptRead, ports.BHTWrite),
		func() repair.Scheme { return repair.NewSnapshot(cfg, entries, ports) })
}

// BackwardWalkSpec is the prior-art history-file repair with an M-N-P
// configuration.
func BackwardWalkSpec(cfg loop.Config, entries int, ports repair.Ports) Spec {
	return specWith(fmt.Sprintf("backward-%d-%d-%d", entries, ports.CkptRead, ports.BHTWrite),
		func() repair.Scheme { return repair.NewBackwardWalk(cfg, entries, ports) })
}

// ForwardWalkSpec is contribution 1, with optional OBQ coalescing.
func ForwardWalkSpec(cfg loop.Config, entries int, ports repair.Ports, coalesce bool) Spec {
	label := fmt.Sprintf("forward-%d-%d-%d", entries, ports.CkptRead, ports.BHTWrite)
	if coalesce {
		label += "-coalesce"
	}
	return specWith(label, func() repair.Scheme {
		return repair.NewForwardWalk(cfg, entries, ports, coalesce)
	})
}

// MultiStageSpec is contribution 2 (split BHT), with a shared or split PT.
func MultiStageSpec(cfg loop.Config, obqEntries int, sharedPT bool) Spec {
	label := "multistage-split-pt"
	if sharedPT {
		label = "multistage-shared-pt"
	}
	return specWith(label, func() repair.Scheme {
		return repair.NewMultiStage(cfg, obqEntries, sharedPT)
	})
}

// LimitedPCSpec is contribution 3, repairing m PCs per misprediction.
func LimitedPCSpec(cfg loop.Config, m, writePorts int, invalidate bool) Spec {
	label := fmt.Sprintf("limited-%dpc", m)
	if invalidate {
		label += "-invalidate"
	}
	return specWith(label, func() repair.Scheme {
		return repair.NewLimitedPC(cfg, m, writePorts, invalidate)
	})
}

// maxSize bounds every number in a configuration name (queue entries,
// checkpoint-read and BHT-write ports, repaired PCs): 16 times the paper's
// largest configuration, 64-64-64.
const maxSize = 1024

// nameForms lists the configuration-name grammar; SpecFor's error for an
// unknown name carries it.
const nameForms = `configuration names (a bracketed default may be left off):
  tage | tage9 | tage57                          TAGE-only baseline: 8KB, 9KB (Fig 14A), 57KB (Fig 14B)
  [tage9-|tage57-]SCHEME[-CBPw-Loop128]          SCHEME over CBPw-Loop64, -128 or -256
  [tage9-|tage57-]yehpatt-none|forward|perfect   the Yeh-Patt local predictor (ext1)
SCHEME:
  perfect | no-repair | retire-update | oracle-local
  snapshot[-32-8-8] | backward[-32-4-4]          M-N-P: queue entries, checkpoint-read ports,
  forward[-32-4-2][-coalesce]                    BHT-write ports
  multistage[-shared-pt] | multistage-split-pt
  limited-Mpc[-invalidate]                       M PCs repaired per mispredict, min(M, 4) write ports`

// SpecFor builds the spec a configuration name denotes. A name is an
// experiment row's label — forward-32-4-2-coalesce, limited-4pc-invalidate,
// perfect-CBPw-Loop64, tage57-limited-4pc, yehpatt-perfect — and the
// paper's default parameters may be left off: forward-coalesce denotes the
// spec labelled forward-32-4-2-coalesce, and perfect the one labelled
// perfect-CBPw-Loop128. Every spec SpecFor returns carries its canonical
// label, which SpecFor maps back to the same spec. It is the one parser of
// configuration names: the experiments, lbpsim -scheme and the localbp
// facade all resolve names here. A name outside the grammar (nameForms),
// or with a number outside 1..maxSize, is an error; SpecFor never builds a
// scheme whose constructor would panic.
func SpecFor(name string) (Spec, error) {
	s, ok := parseName(name)
	if !ok {
		return Spec{}, fmt.Errorf("unknown configuration %q\n%s\nevery number is an integer from 1 to %d",
			name, nameForms, maxSize)
	}
	return s, nil
}

// tageSizes are the non-default TAGE baselines a name can select by prefix.
var tageSizes = []struct {
	tag string
	cfg func() tage.Config
}{{"tage9", tage.KB9}, {"tage57", tage.KB57}}

// loopSizes are Table 2's CBPw-Loop sizes, selected by a -CBPw-LoopN suffix.
var loopSizes = []func() loop.Config{loop.Loop64, loop.Loop128, loop.Loop256}

// parseName splits off a TAGE prefix: tage, tage9 and tage57 alone are the
// TAGE-only baselines, and tage9-X or tage57-X runs scheme X on that TAGE.
func parseName(name string) (Spec, bool) {
	if name == "tage" {
		return BaselineSpec(), true
	}
	for _, t := range tageSizes {
		if name == t.tag {
			s := BaselineSpec()
			s.Label, s.Tage = t.tag, t.cfg()
			return s, true
		}
		if rest, ok := strings.CutPrefix(name, t.tag+"-"); ok {
			s, ok := parseScheme(rest)
			if !ok {
				return Spec{}, false
			}
			s.Label, s.Tage = t.tag+"-"+s.Label, t.cfg()
			return s, true
		}
	}
	return parseScheme(name)
}

// parseScheme parses a local predictor under a repair scheme on TAGE-8KB.
func parseScheme(name string) (Spec, bool) {
	var yp SchemeMaker
	switch name {
	case "yehpatt-none":
		yp = func() repair.Scheme { return repair.NewNoneFor(loop.NewYehPatt(loop.YehPatt128())) }
	case "yehpatt-forward":
		yp = func() repair.Scheme {
			return repair.NewForwardWalkFor(loop.NewYehPatt(loop.YehPatt128()),
				32, repair.Ports{CkptRead: 4, BHTWrite: 2}, true)
		}
	case "yehpatt-perfect":
		yp = func() repair.Scheme { return repair.NewPerfectFor(loop.NewYehPatt(loop.YehPatt128())) }
	}
	if yp != nil {
		return specWith(name, yp), true
	}

	cfg := loop.Loop128()
	for _, mk := range loopSizes {
		if rest, ok := strings.CutSuffix(name, "-"+mk().Name); ok {
			cfg, name = mk(), rest
			break
		}
	}
	// These three constructors name the loop predictor in every label.
	switch name {
	case "perfect":
		return PerfectSpec(cfg), true
	case "no-repair":
		return NoRepairSpec(cfg), true
	case "retire-update":
		return RetireUpdateSpec(cfg), true
	}
	s, ok := parseRepair(cfg, name)
	if ok && cfg.Name != loop.Loop128().Name {
		s.Label += "-" + cfg.Name
	}
	return s, ok
}

// mnpDefaults are the paper's M-N-P configurations of the three queue-based
// schemes, which a name may leave off.
var mnpDefaults = map[string][3]int{
	"snapshot": {32, 8, 8},
	"backward": {32, 4, 4},
	"forward":  {32, 4, 2},
}

// parseRepair parses the schemes whose labels leave out the loop predictor.
func parseRepair(cfg loop.Config, name string) (Spec, bool) {
	switch name {
	case "oracle-local":
		s := PerfectSpec(cfg)
		s.Label, s.Oracle = name, true
		return s, true
	case "multistage", "multistage-shared-pt":
		return MultiStageSpec(cfg, 32, true), true
	case "multistage-split-pt":
		return MultiStageSpec(cfg, 32, false), true
	}
	f := strings.Split(name, "-")
	switch f[0] {
	case "snapshot", "backward", "forward":
		coalesce := f[0] == "forward" && len(f) > 1 && f[len(f)-1] == "coalesce"
		if coalesce {
			f = f[:len(f)-1]
		}
		mnp := mnpDefaults[f[0]]
		switch len(f) {
		case 1:
		case 4:
			for i := range mnp {
				n, ok := size(f[i+1])
				if !ok {
					return Spec{}, false
				}
				mnp[i] = n
			}
		default:
			return Spec{}, false
		}
		ports := repair.Ports{CkptRead: mnp[1], BHTWrite: mnp[2]}
		switch f[0] {
		case "snapshot":
			return SnapshotSpec(cfg, mnp[0], ports), true
		case "backward":
			return BackwardWalkSpec(cfg, mnp[0], ports), true
		}
		return ForwardWalkSpec(cfg, mnp[0], ports, coalesce), true
	case "limited":
		invalidate := len(f) == 3 && f[2] == "invalidate"
		if len(f) != 2 && !invalidate {
			return Spec{}, false
		}
		digits, pc := strings.CutSuffix(f[1], "pc")
		m, ok := size(digits)
		if !pc || !ok {
			return Spec{}, false
		}
		return LimitedPCSpec(cfg, m, min(m, 4), invalidate), true
	}
	return Spec{}, false
}

// size parses one number of a name: plain decimal digits without a leading
// zero, from 1 to maxSize.
func size(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && strconv.Itoa(n) == s && n >= 1 && n <= maxSize
}
