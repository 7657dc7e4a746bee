package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"localbp/internal/bpu/loop"
	"localbp/internal/harness"
	"localbp/internal/repair"
)

// ladder pairs each repair-scheme row the table3 experiment prints with its
// row in EXPERIMENTS.md's headline comparison. The baseline (0%) and perfect
// (100%) rows are equal by definition and left out.
var ladder = []struct{ label, paperRow string }{
	{"no-repair-CBPw-Loop128", "No repair"},
	{"snapshot-32-8-8", "Snapshot (32-8-8)"},
	{"retire-update-CBPw-Loop128", "Update BHT at retire"},
	{"backward-32-4-4", "Backward walk (32-4-4)"},
	{"limited-2pc", "2-PC limited repair"},
	{"multistage-shared-pt", "Split-BHT multi-stage"},
	{"limited-4pc", "4-PC limited repair"},
	{"forward-32-4-2", "Forward walk (32-4-2)"},
	{"forward-32-4-2-coalesce", "Forward walk + coalescing"},
}

// table3Specs returns the specs the table3 experiment runs: the baseline,
// perfect repair and one spec per ladder row. The traced sweep runs them
// one by one to time and decorate each.
func table3Specs() []harness.Spec {
	c := loop.Loop128()
	return []harness.Spec{
		harness.BaselineSpec(),
		harness.PerfectSpec(c),
		harness.NoRepairSpec(c),
		harness.SnapshotSpec(c, 32, repair.Ports{CkptRead: 8, BHTWrite: 8}),
		harness.RetireUpdateSpec(c),
		harness.BackwardWalkSpec(c, 32, repair.Ports{CkptRead: 4, BHTWrite: 4}),
		harness.LimitedPCSpec(c, 2, 2, false),
		harness.MultiStageSpec(c, 32, true),
		harness.LimitedPCSpec(c, 4, 4, false),
		harness.ForwardWalkSpec(c, 32, repair.Ports{CkptRead: 4, BHTWrite: 2}, false),
		harness.ForwardWalkSpec(c, 32, repair.Ports{CkptRead: 4, BHTWrite: 2}, true),
	}
}

const percentColumn = "% of perfect"

// parsePct reads "61.2%" or "−4.9%" (Unicode minus) as a number.
func parsePct(s string) (float64, error) {
	s = strings.TrimSuffix(strings.ReplaceAll(strings.TrimSpace(s), "−", "-"), "%")
	return strconv.ParseFloat(s, 64)
}

// parsePaperColumn reads the "paper % of perfect" column of the headline
// comparison table in EXPERIMENTS.md, keyed by configuration name.
func parsePaperColumn(md string) (map[string]float64, error) {
	col := -1
	out := map[string]float64{}
	for _, line := range strings.Split(md, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if col >= 0 {
				break // end of the table
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if col < 0 {
			for i, c := range cells {
				if c == "paper "+percentColumn {
					col = i
				}
			}
			continue
		}
		if col >= len(cells) || strings.HasPrefix(cells[0], "---") {
			continue
		}
		v, err := parsePct(cells[col])
		if err != nil {
			return nil, fmt.Errorf("EXPERIMENTS.md row %q: %w", cells[0], err)
		}
		out[cells[0]] = v
	}
	for _, l := range ladder {
		if _, ok := out[l.paperRow]; !ok {
			return nil, fmt.Errorf("EXPERIMENTS.md has no %q row in its paper %s column", l.paperRow, percentColumn)
		}
	}
	return out, nil
}

// parseTable3 reads the "% of perfect" column of the table3 experiment's
// text, keyed by ladder label.
func parseTable3(text string) (map[string]float64, error) {
	lines := strings.Split(text, "\n")
	at := -1
	for _, line := range lines {
		if i := strings.Index(line, percentColumn); i >= 0 && strings.HasPrefix(line, "Configuration") {
			at = i
			break
		}
	}
	if at < 0 {
		return nil, fmt.Errorf("table3 output has no %q column", percentColumn)
	}
	out := map[string]float64{}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) == 0 || len(line) <= at {
			continue
		}
		for _, l := range ladder {
			if f[0] != l.label {
				continue
			}
			cell := strings.Fields(line[at:])
			if len(cell) == 0 {
				return nil, fmt.Errorf("table3 row %s has no %s cell", l.label, percentColumn)
			}
			v, err := parsePct(cell[0])
			if err != nil {
				return nil, fmt.Errorf("table3 row %s: %w", l.label, err)
			}
			out[l.label] = v
		}
	}
	for _, l := range ladder {
		if _, ok := out[l.label]; !ok {
			return nil, fmt.Errorf("table3 output has no %s row", l.label)
		}
	}
	return out, nil
}

// paperError is the mean absolute difference, in percentage points, between
// the simulated and the paper's "% of perfect" over the ladder rows.
func paperError(ours, paper map[string]float64) float64 {
	sum := 0.0
	for _, l := range ladder {
		sum += math.Abs(ours[l.label] - paper[l.paperRow])
	}
	return sum / float64(len(ladder))
}
