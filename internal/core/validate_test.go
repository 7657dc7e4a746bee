package core

import (
	"strings"
	"testing"

	"localbp/internal/bpu"
	"localbp/internal/bpu/tage"
	"localbp/internal/workloads"
)

// TestConfigValidateGeometry has one row per memory-hierarchy or BTB
// geometry that the cache or BTB constructor cannot build (a panic, a
// division by zero or an out-of-range index on first use): Validate must
// reject each with an error naming the field.
func TestConfigValidateGeometry(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"non-power-of-two set count", func(c *Config) { c.Mem.L1.SizeBytes = 3 * 64 * 8 }, "L1.SizeBytes"},
		{"zero line size", func(c *Config) { c.Mem.L2.LineBytes = 0 }, "L2.LineBytes"},
		{"non-power-of-two line size", func(c *Config) { c.Mem.L1.LineBytes = 48 }, "L1.LineBytes"},
		{"zero ways", func(c *Config) { c.Mem.LLC.Ways = 0 }, "LLC.Ways"},
		{"ways beyond the way-index width", func(c *Config) { c.Mem.L2.Ways = 128 }, "L2.Ways"},
		{"smaller than one set", func(c *Config) { c.Mem.L1.SizeBytes = 256 }, "L1.SizeBytes"},
		{"size not a whole number of lines", func(c *Config) { c.Mem.LLC.SizeBytes += 32 }, "LLC.SizeBytes"},
		{"negative level latency", func(c *Config) { c.Mem.L2.Latency = -1 }, "L2.Latency"},
		{"negative DRAM latency", func(c *Config) { c.Mem.DRAMLatency = -1 }, "DRAMLatency"},
		{"negative BTB entries", func(c *Config) { c.BTB.Entries = -1 }, "btb.Config.Entries"},
		{"zero BTB ways", func(c *Config) { c.BTB.Ways = 0 }, "btb.Config.Ways"},
		{"BTB entries not a multiple of ways", func(c *Config) { c.BTB.Entries = 2050 }, "btb.Config.Entries"},
		{"non-power-of-two BTB sets", func(c *Config) { c.BTB.Entries = 12 }, "btb.Config.Entries"},
		{"BTB ways beyond the LRU width", func(c *Config) { c.BTB.Entries, c.BTB.Ways = 1024, 512 }, "btb.Config.Ways"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error does not name %s: %v", tc.name, tc.field, err)
		}
	}

	noBTB := DefaultConfig()
	noBTB.BTB.Entries, noBTB.BTB.Ways = 0, 0
	if err := noBTB.Validate(); err != nil {
		t.Errorf("a zero-entry BTB (no BTB) was rejected: %v", err)
	}
}

// FuzzCoreConfigValidate checks Validate against the constructors: any
// configuration it accepts must build a core that runs a short program to
// completion or to a structured error, never a panic. The inputs are narrow
// integers, and hierarchies with more than 2^20 lines in all are skipped, so
// that the cache metadata of an accepted configuration stays small.
func FuzzCoreConfigValidate(f *testing.F) {
	tr := workloads.QuickSuite()[0].Generate(2_000)
	d := DefaultConfig()
	f.Add(int8(d.Width), int16(d.ROBSize), int16(d.AllocQueue),
		int8(d.ALUs), int8(d.LoadPorts), int8(d.FrontendDepth),
		int16(d.Mem.L1.SizeBytes>>10), int8(d.Mem.L1.LineBytes), int8(d.Mem.L1.Ways), int8(d.Mem.L1.Latency),
		int16(d.Mem.L2.SizeBytes>>10), int8(d.Mem.L2.Ways),
		int16(d.Mem.LLC.SizeBytes>>10), int8(d.Mem.LLC.Ways), int16(d.Mem.DRAMLatency),
		int16(d.BTB.Entries), int8(d.BTB.Ways))
	f.Add(int8(1), int16(1), int16(1), int8(1), int8(1), int8(0),
		int16(1), int8(64), int8(16), int8(0), int16(0), int8(0), int16(-1), int8(65), int16(-1),
		int16(12), int8(4))
	f.Fuzz(func(t *testing.T, width int8, rob, aq int16, alus, ldPorts, frontend int8,
		l1KB int16, line, l1Ways, l1Lat int8, l2KB int16, l2Ways int8, llcKB int16, llcWays int8, dram int16,
		btbEntries int16, btbWays int8) {
		cfg := DefaultConfig()
		cfg.Width, cfg.ROBSize, cfg.AllocQueue = int(width), int(rob), int(aq)
		cfg.ALUs, cfg.LoadPorts, cfg.FrontendDepth = int(alus), int(ldPorts), int64(frontend)
		cfg.Mem.L1.SizeBytes, cfg.Mem.L1.LineBytes, cfg.Mem.L1.Ways = int(l1KB)<<10, int(line), int(l1Ways)
		cfg.Mem.L1.Latency = int64(l1Lat)
		cfg.Mem.L2.SizeBytes, cfg.Mem.L2.LineBytes, cfg.Mem.L2.Ways = int(l2KB)<<10, int(line), int(l2Ways)
		cfg.Mem.LLC.SizeBytes, cfg.Mem.LLC.LineBytes, cfg.Mem.LLC.Ways = int(llcKB)<<10, int(line), int(llcWays)
		cfg.Mem.DRAMLatency = int64(dram)
		cfg.BTB.Entries, cfg.BTB.Ways = int(btbEntries), int(btbWays)
		if cfg.Validate() != nil {
			return
		}
		if lines := (cfg.Mem.L1.SizeBytes + cfg.Mem.L2.SizeBytes + cfg.Mem.LLC.SizeBytes) / int(line); lines > 1<<20 {
			return
		}
		// A stall or cycle-budget error is a legitimate outcome for a
		// starved configuration; only a panic fails.
		_, _ = simulate(New(cfg, bpu.NewUnit(tage.KB8(), nil), tr))
	})
}
