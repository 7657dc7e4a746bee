package mem

import (
	"testing"
	"testing/quick"
)

func noPrefetch() HierarchyConfig {
	cfg := DefaultHierarchy()
	cfg.L1.Prefetch = false
	cfg.L2.Prefetch = false
	cfg.LLC.Prefetch = false
	return cfg
}

func TestColdMissGoesToDRAM(t *testing.T) {
	h := New(noPrefetch())
	cfg := DefaultHierarchy()
	want := cfg.L1.Latency + cfg.L2.Latency + cfg.LLC.Latency + cfg.DRAMLatency
	if got := h.AccessAt(0x1234000, -1); got != want {
		t.Fatalf("cold access latency %d, want %d", got, want)
	}
}

func TestHitAfterFill(t *testing.T) {
	h := New(noPrefetch())
	h.AccessAt(0x1234000, -1)
	if got := h.AccessAt(0x1234008, -1); got != DefaultHierarchy().L1.Latency {
		t.Fatalf("same-line access latency %d, want L1 hit", got)
	}
}

func TestInclusiveFill(t *testing.T) {
	h := New(noPrefetch())
	addr := uint64(0x40000)
	h.AccessAt(addr, -1)
	// Evict from L1 by filling its set (64 sets × 64B lines: +4KB strides
	// map to the same set; 8 ways + 1 conflict).
	for i := 1; i <= 8; i++ {
		h.AccessAt(addr+uint64(i)*4096, -1)
	}
	cfg := DefaultHierarchy()
	got := h.AccessAt(addr, -1)
	if got != cfg.L1.Latency+cfg.L2.Latency {
		t.Fatalf("L1-evicted line latency %d, want L2 hit %d", got, cfg.L1.Latency+cfg.L2.Latency)
	}
}

func TestLRUKeepsHotLine(t *testing.T) {
	h := New(noPrefetch())
	hot := uint64(0x40000)
	h.AccessAt(hot, -1)
	for i := 1; i <= 7; i++ {
		h.AccessAt(hot+uint64(i)*4096, -1) // fill the set
	}
	h.AccessAt(hot, -1) // re-touch: now MRU
	h.AccessAt(hot+8*4096, -1)
	h.AccessAt(hot+9*4096, -1) // two evictions: hot must survive
	if got := h.AccessAt(hot, -1); got != DefaultHierarchy().L1.Latency {
		t.Fatalf("hot line evicted despite LRU touch (latency %d)", got)
	}
}

func TestStreamPrefetchCoverage(t *testing.T) {
	h := New(DefaultHierarchy())
	for i := 0; i < 20000; i++ {
		h.AccessAt(uint64(0x100000+i*8), -1)
	}
	acc, l1m, _, _ := h.Stats()
	if rate := float64(l1m) / float64(acc); rate > 0.02 {
		t.Fatalf("streaming L1 miss rate %.3f; prefetcher broken", rate)
	}
}

func TestInterleavedStreams(t *testing.T) {
	h := New(DefaultHierarchy())
	bases := [4]uint64{0x10000000, 0x20000340, 0x30000680, 0x400009c0}
	for i := 0; i < 40000; i++ {
		k := i % 4
		bases[k] += 8
		h.AccessAt(bases[k], -1)
	}
	acc, l1m, _, _ := h.Stats()
	if rate := float64(l1m) / float64(acc); rate > 0.05 {
		t.Fatalf("4-stream L1 miss rate %.3f", rate)
	}
}

func TestRandomAccessesMissRealistically(t *testing.T) {
	h := New(DefaultHierarchy())
	x := uint64(12345)
	for i := 0; i < 50000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.AccessAt((x>>20)&(64<<20-1), -1) // uniform over 64MB
	}
	acc, l1m, _, llcm := h.Stats()
	if rate := float64(l1m) / float64(acc); rate < 0.5 {
		t.Fatalf("random-over-64MB L1 miss rate %.3f suspiciously low", rate)
	}
	if llcm == 0 {
		t.Fatal("64MB random working set never missed the 8MB LLC")
	}
}

func TestStatsMonotonic(t *testing.T) {
	h := New(DefaultHierarchy())
	h.AccessAt(0x1000, -1)
	a1, m1, _, _ := h.Stats()
	h.AccessAt(0x2000000, -1)
	a2, m2, _, _ := h.Stats()
	if a2 != a1+1 || m2 < m1 {
		t.Fatalf("stats not monotonic: %d->%d, %d->%d", a1, a2, m1, m2)
	}
}

func TestLatencyBoundsProperty(t *testing.T) {
	cfg := DefaultHierarchy()
	minLat := cfg.L1.Latency
	maxLat := cfg.L1.Latency + cfg.L2.Latency + cfg.LLC.Latency + cfg.DRAMLatency
	h := New(cfg)
	f := func(addr uint64) bool {
		lat := h.AccessAt(addr, -1)
		return lat >= minLat && lat <= maxLat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count accepted")
		}
	}()
	newCache(Config{SizeBytes: 3 * 64 * 8, LineBytes: 64, Ways: 8, Latency: 1})
}

// TestReplayAccountsLikeAccess splits a live access stream into Probe (on
// one hierarchy) and Account (on a replay hierarchy with no cache arrays):
// every latency and counter must match the hierarchy that ran AccessAt.
func TestReplayAccountsLikeAccess(t *testing.T) {
	cfg := DefaultHierarchy()
	live, prober, replay := New(cfg), New(cfg), NewReplay(cfg)
	addr := uint64(0x10000)
	for i := 0; i < 20_000; i++ {
		if i%3 == 0 {
			addr += 8 // a stream the prefetchers cover
		} else {
			addr = addr*6364136223846793005 + 1442695040888963407
		}
		a := addr % (64 << 20)
		want := live.AccessAt(a, -1)
		if got := replay.Account(prober.Probe(a), a, -1); got != want {
			t.Fatalf("access %d: replayed latency %d, live %d", i, got, want)
		}
	}
	la, l1, l2, l3 := live.Stats()
	ra, r1, r2, r3 := replay.Stats()
	if [4]uint64{la, l1, l2, l3} != [4]uint64{ra, r1, r2, r3} || live.PrefetchHits() != replay.PrefetchHits() {
		t.Fatalf("replayed counters (%d %d %d %d, %d prefetch hits) differ from live (%d %d %d %d, %d)",
			ra, r1, r2, r3, replay.PrefetchHits(), la, l1, l2, l3, live.PrefetchHits())
	}
	if pa, _, _, _ := prober.Stats(); pa != 0 {
		t.Fatalf("Probe moved the access counter to %d", pa)
	}
	if live.PrefetchHits() == 0 || l3 == 0 {
		t.Fatal("the stream exercised no prefetch hit or LLC miss")
	}
}
