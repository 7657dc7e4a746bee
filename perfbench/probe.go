package main

import (
	"runtime"
	"slices"
)

// The host this benchmark was built on is a virtual machine shared with
// other tenants, and its speed drifts by up to ±20% over minutes. Medians
// within a run cannot remove drift between runs, so every time metric is
// scaled to a reference host speed measured by a probe: a fixed amount of
// host work that does not touch the simulator.
//
// The probe runs in blocks of the same shape after every set-up and every
// op, whatever the op's length: a garbage collection, so the op's garbage
// does not weigh on the probe; one untimed probe, so the host's caches and
// predictors hold the probe's state and not the op's; then probeTimed timed
// probes. A wall time measured between two blocks is scaled by the median
// wall time of the two blocks' timed probes, and a CPU time by their median
// CPU time: CPU time leaves out the time the host gave to other tenants,
// wall time does not. The unscaled medians and the probe medians are printed
// beside the result.

// probeRefNs is the probe's time on the reference host, the 2-vCPU Xeon
// virtual machine at its quietest. Scaling by probeRefNs / probe time
// reports every time as it would read there; the constant only sets the
// scale.
const probeRefNs = 2.7e6

// probeTimed is the number of timed probes in a block.
const probeTimed = 3

type probe struct {
	table     []uint32
	m         map[uint64]int
	keys      []int
	sink      uint64
	wall, cpu []float64 // every timed probe of the run, ns
}

func newProbe() *probe {
	p := &probe{table: make([]uint32, 1<<20), m: make(map[uint64]int, 4096), keys: make([]int, 0, 4096)}
	r := uint32(12345)
	for i := range p.table {
		r = r*1664525 + 1013904223
		p.table[i] = r
	}
	p.block()
	return p
}

// once runs the probe work one time and returns its wall and thread CPU
// time in ns. It allocates nothing after the first call.
func (p *probe) once() (wall, cpu float64) {
	// Read the whole table first, so the timed reads find it in the host's
	// caches.
	var warm uint32
	for _, v := range p.table {
		warm += v
	}
	c0, t0 := cpuClock(clockThreadCPU), nanotime()
	x := uint64(88172645463325252) + uint64(warm&1)
	var acc uint64
	for range 175_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 == 0 {
			acc += x >> 60
		} else {
			acc -= x >> 61
		}
	}
	y := uint32(1)
	mask := uint32(len(p.table) - 1)
	for i := range 20_000 {
		y = p.table[y&mask] ^ uint32(i)
		if y&3 == 0 {
			acc += uint64(y)
		}
	}
	clear(p.m)
	for i := range 2_000 {
		x = x*6364136223846793005 + 1442695040888963407
		p.m[x>>40] = i
	}
	p.keys = p.keys[:0]
	for k, v := range p.m {
		p.keys = append(p.keys, int(k)^v)
	}
	slices.Sort(p.keys)
	p.sink += acc + uint64(p.keys[len(p.keys)/2])
	return float64(nanotime() - t0), float64(cpuClock(clockThreadCPU) - c0)
}

// block runs one probe block and records its timed probes.
func (p *probe) block() {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p.once()
	for range probeTimed {
		w, c := p.once()
		p.wall, p.cpu = append(p.wall, w), append(p.cpu, c)
	}
}

// after runs the block that closes a measured interval and returns the
// factors that scale a wall and a CPU time measured in it to the reference
// host speed: the interval is bracketed by the block before it and this one.
func (p *probe) after() (wall, cpu float64) {
	p.block()
	n := len(p.wall) - 2*probeTimed
	return probeRefNs / median(p.wall[n:]), probeRefNs / median(p.cpu[n:])
}
