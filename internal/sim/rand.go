package sim

// Rand is a small, fast, deterministic pseudo-random number generator
// (xorshift64*), used by workload generators so that simulations are
// reproducible independent of the Go runtime's rand implementation details.
// Each component owns its own Rand so event execution order cannot perturb
// random streams.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded by seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zeros fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Geometric returns a sample from a geometric distribution with success
// probability p (mean (1-p)/p extra trials); it is used to draw memoryless
// inter-arrival gaps. p must be in (0, 1].
func (r *Rand) Geometric(p float64) uint64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("sim: Geometric with non-positive p")
	}
	// Bernoulli trials: count the failures before the first success, a
	// trial failing when its Float64 draw is >= p. A draw is its top 53
	// bits over 2^53, and scaling by a power of two is exact, so comparing
	// those bits against p·2^53 decides every trial exactly as Float64
	// would; the state stays in a local for the loop.
	thresh := p * (1 << 53)
	x := r.state
	var n uint64
	for {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		// Success is any draw that is not >= p, a NaN p included.
		if !(float64((x*0x2545F4914F6CDD1D)>>11) >= thresh) {
			break
		}
		n++
		if n > 1<<20 { // pathological p; bound the loop
			break
		}
	}
	r.state = x
	return n
}

// Perm fills dst with a pseudo-random permutation of [0, len(dst)).
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
