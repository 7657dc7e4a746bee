package trace

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xoshiro256**). The simulator avoids math/rand so that
// generated workloads are bit-stable across Go releases.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-initializes the generator state from seed.
func (r *RNG) Seed(seed int64) {
	x := uint64(seed)
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform integer in [lo, hi]. Requires lo <= hi.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("trace: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
