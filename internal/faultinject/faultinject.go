// Package faultinject injects seeded, deterministic faults into the
// simulator's speculative-state machinery: bit flips in BHT counters,
// corrupted pattern-table training, poisoned TAGE history, dropped and
// duplicated OBQ entries, and repairs that never complete. It exists to
// demonstrate (and regression-test) two properties of the integrity layer:
//
//   - graceful degradation: under any injected fault the simulation
//     completes under the watchdog with bounded accuracy loss and zero
//     panics;
//   - detection: faults that violate auditable invariants (OBQ drops and
//     duplicates, a skipped perfect repair) surface as structured
//     audit.IntegrityError values when the auditor is enabled.
//
// Injection is a decorator over repair.Scheme, like the auditor's wrapper;
// the two compose (inject innermost, audit outermost) so the auditor
// observes the faulted scheme exactly as the pipeline does. Firing is
// deterministic: every Nth eligible event per fault kind, with a splitmix64
// stream (seeded) choosing only *what* to corrupt, never *whether*.
package faultinject

import (
	"errors"
	"fmt"
	"strings"

	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/obq"
	"localbp/internal/repair"
)

// Kind enumerates the fault categories.
type Kind int

const (
	// BHTFlip flips a random bit of the branch's speculative BHT counter
	// (a soft error in the prediction array). Repair schemes overwrite the
	// damage; never independently detectable, always graceful.
	BHTFlip Kind = iota
	// PTCorrupt trains the pattern table with the inverted architectural
	// outcome (a corrupted training pipe). Graceful: confidence machinery
	// absorbs it at some accuracy cost.
	PTCorrupt
	// TAGEHistory pushes a bogus bit for a scrambled PC into the global and
	// path history (a corrupted history register). Graceful.
	TAGEHistory
	// OBQDrop discards the youngest live OBQ entry while its branch is
	// still in flight. Detected by the auditor's checkpoint-liveness check
	// when that branch resolves or retires.
	OBQDrop
	// OBQDup allocates a phantom OBQ entry that duplicates the current
	// tail's state with a non-increasing sequence number. Detected by the
	// auditor's OBQ order scan.
	OBQDup
	// RepairDelay drops a repair completion: the scheme's OnMispredict
	// never runs, leaving the BHT corrupted (an infinitely delayed repair).
	// Detected under perfect repair by the auditor's resync-equality check;
	// graceful (accuracy loss only) elsewhere.
	RepairDelay

	numKinds
)

var kindNames = [numKinds]string{
	"bht-flip", "pt-corrupt", "tage-history", "obq-drop", "obq-dup", "repair-delay",
}

// String returns the CLI name of the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds returns every fault kind (test sweeps).
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKinds parses a comma-separated kind list ("obq-drop,bht-flip") or
// "all".
func ParseKinds(s string) ([]Kind, error) {
	if strings.TrimSpace(s) == "all" {
		return Kinds(), nil
	}
	var out []Kind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		found := false
		for i, n := range kindNames {
			if part == n {
				out = append(out, Kind(i))
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("faultinject: unknown kind %q (valid: %s, all)",
				part, strings.Join(kindNames[:], ", "))
		}
	}
	if len(out) == 0 {
		return nil, errors.New("faultinject: empty kind list")
	}
	return out, nil
}

// Config parameterizes an injector.
type Config struct {
	Seed  uint64 // splitmix64 seed for target selection
	Every uint64 // fire on every Nth eligible event per kind (>= 1)
	Kinds []Kind // enabled fault kinds
	Max   uint64 // total fault budget across kinds; 0 = unlimited
}

// Validate checks the configuration.
func (c Config) Validate() error {
	var errs []error
	if c.Every == 0 {
		errs = append(errs, errors.New("faultinject.Config.Every: got 0, want >= 1"))
	}
	if len(c.Kinds) == 0 {
		errs = append(errs, errors.New("faultinject.Config.Kinds: empty"))
	}
	for _, k := range c.Kinds {
		if k < 0 || k >= numKinds {
			errs = append(errs, fmt.Errorf("faultinject.Config.Kinds: invalid kind %d", int(k)))
		}
	}
	return errors.Join(errs...)
}

// Injector drives deterministic fault injection for one simulation run.
type Injector struct {
	cfg     Config
	enabled [numKinds]bool
	rng     uint64
	events  [numKinds]uint64
	counts  [numKinds]uint64
	total   uint64
	tage    *tage.Predictor
}

// New builds an injector; the configuration must validate.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{cfg: cfg, rng: cfg.Seed}
	for _, k := range cfg.Kinds {
		inj.enabled[k] = true
	}
	return inj, nil
}

// AttachTAGE gives the injector access to the TAGE predictor for the
// tage-history fault vector; without it the kind is silently inert.
func (inj *Injector) AttachTAGE(t *tage.Predictor) { inj.tage = t }

// next is a splitmix64 step: deterministic target selection from the seed.
func (inj *Injector) next() uint64 {
	inj.rng += 0x9e3779b97f4a7c15
	z := inj.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// due counts one eligible event for kind k and reports whether a fault
// fires now (every Nth event, within the total budget).
func (inj *Injector) due(k Kind) bool {
	if !inj.enabled[k] {
		return false
	}
	if inj.cfg.Max > 0 && inj.total >= inj.cfg.Max {
		return false
	}
	inj.events[k]++
	return inj.events[k]%inj.cfg.Every == 0
}

// fired accounts one injected fault.
func (inj *Injector) fired(k Kind) {
	inj.counts[k]++
	inj.total++
}

// Total returns how many faults were injected.
func (inj *Injector) Total() uint64 { return inj.total }

// Counts returns the per-kind injected-fault counts, keyed by kind name.
func (inj *Injector) Counts() map[string]uint64 {
	out := make(map[string]uint64, numKinds)
	for i, n := range kindNames {
		if inj.counts[i] > 0 {
			out[n] = inj.counts[i]
		}
	}
	return out
}

// predictorHolder / obqHolder mirror the audit package's introspection
// surfaces: the injector reaches the BHT and OBQ the same way the auditor
// does, and forwards them so an outer audit wrapper sees through it.
type predictorHolder interface {
	Predictor() loop.LocalPredictor
}

type obqHolder interface {
	OBQ() *obq.Queue
}

// Wrap decorates s with the injector's fault vectors. harness.Run composes
// it inside the auditor's scheme wrapper, so the auditor observes the
// faulted scheme.
func (inj *Injector) Wrap(s repair.Scheme) repair.Scheme {
	w := &faultyScheme{inner: s, inj: inj}
	if ph, ok := s.(predictorHolder); ok {
		w.lp = ph.Predictor()
	}
	if qh, ok := s.(obqHolder); ok {
		w.q = qh.OBQ()
	}
	return w
}

// faultyScheme is the injecting decorator.
type faultyScheme struct {
	inner repair.Scheme
	inj   *Injector
	lp    loop.LocalPredictor // nil when inner exposes no single predictor
	q     *obq.Queue          // nil when inner has no OBQ
}

// Predictor forwards introspection (oracle coverage, outer audit wrapper).
func (w *faultyScheme) Predictor() loop.LocalPredictor { return w.lp }

// OBQ forwards introspection (outer audit wrapper).
func (w *faultyScheme) OBQ() *obq.Queue { return w.q }

// Name implements repair.Scheme.
func (w *faultyScheme) Name() string { return w.inner.Name() + "+inject" }

// FetchPredict implements repair.Scheme.
func (w *faultyScheme) FetchPredict(pc uint64, cycle int64) loop.Prediction {
	return w.inner.FetchPredict(pc, cycle)
}

// OnFetchBranch implements repair.Scheme and is the injection point for the
// state-corruption vectors: each fetched branch is one eligible event.
func (w *faultyScheme) OnFetchBranch(ctx *repair.BranchCtx, cycle int64) {
	w.inner.OnFetchBranch(ctx, cycle)
	inj := w.inj
	if w.lp != nil && inj.due(BHTFlip) {
		if st, ok := w.lp.LookupState(ctx.PC); ok {
			st.Count ^= 1 << (inj.next() % 11) // the paper's 11-bit pattern
			w.lp.RestoreState(ctx.PC, st)
			inj.fired(BHTFlip)
		}
	}
	if inj.tage != nil && inj.due(TAGEHistory) {
		r := inj.next()
		inj.tage.SpecUpdateHistory(ctx.PC^(r|1), r&(1<<20) != 0)
		inj.fired(TAGEHistory)
	}
	if w.q != nil && inj.due(OBQDrop) {
		head, tail := w.q.Bounds()
		if tail-head >= 2 {
			// Drop the youngest live entry; its in-flight owner now holds a
			// dead (soon recycled) checkpoint id.
			w.q.SquashAfter(tail - 2)
			inj.fired(OBQDrop)
		}
	}
	if w.q != nil && inj.due(OBQDup) {
		head, tail := w.q.Bounds()
		if tail > head && !w.q.Full() {
			prev := w.q.Get(tail - 1)
			// A phantom double-allocation: a distinct PC with a
			// non-increasing Seq breaks the queue's age ordering.
			w.q.Alloc(prev.PC^0x40, prev.Seq, prev.State)
			inj.fired(OBQDup)
		}
	}
}

// AllocCheck implements repair.Scheme.
func (w *faultyScheme) AllocCheck(ctx *repair.BranchCtx, cycle int64) (bool, bool) {
	return w.inner.AllocCheck(ctx, cycle)
}

// OnMispredict implements repair.Scheme: the repair-delay vector swallows
// the repair entirely — the speculative BHT stays corrupted, as if the
// repair operation were delayed past the end of the run.
func (w *faultyScheme) OnMispredict(ctx *repair.BranchCtx, cycle int64) {
	if w.inj.due(RepairDelay) {
		w.inj.fired(RepairDelay)
		return
	}
	w.inner.OnMispredict(ctx, cycle)
}

// OnCorrectResolve implements repair.Scheme.
func (w *faultyScheme) OnCorrectResolve(ctx *repair.BranchCtx, cycle int64) {
	w.inner.OnCorrectResolve(ctx, cycle)
}

// OnRetire implements repair.Scheme: the PT-corruption vector trains the
// pattern table with the inverted outcome before the real training runs.
func (w *faultyScheme) OnRetire(ctx *repair.BranchCtx, finalMisp bool) {
	if w.lp != nil && w.inj.due(PTCorrupt) {
		w.lp.Retire(ctx.PC, !ctx.ActualTaken, true)
		w.inj.fired(PTCorrupt)
	}
	w.inner.OnRetire(ctx, finalMisp)
}

// OnSquash implements repair.Scheme.
func (w *faultyScheme) OnSquash(ctx *repair.BranchCtx) { w.inner.OnSquash(ctx) }

// Stats implements repair.Scheme.
func (w *faultyScheme) Stats() *repair.Stats { return w.inner.Stats() }

// StorageBits implements repair.Scheme.
func (w *faultyScheme) StorageBits() int { return w.inner.StorageBits() }

// BusyUntil implements repair.BusyReporter by forwarding to the wrapped
// scheme (0 — never busy — when it does not report).
func (w *faultyScheme) BusyUntil() int64 {
	if br, ok := w.inner.(repair.BusyReporter); ok {
		return br.BusyUntil()
	}
	return 0
}
