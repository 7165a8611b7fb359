// Package rng provides a deterministic, splittable pseudo-random number
// generator with the distribution samplers needed across the framework:
// uniform, normal, Laplace, log-normal, and exponential variates.
//
// Every federated client, dataset generator, and privacy mechanism owns an
// independent stream derived from a master seed, so simulations are exactly
// reproducible regardless of goroutine scheduling. The core generator is
// xoshiro256** seeded through splitmix64, following Blackman & Vigna.
package rng

import "math"

// RNG is a deterministic pseudo-random generator. It is not safe for
// concurrent use; derive one stream per goroutine with Split.
type RNG struct {
	s [4]uint64
	// cached second normal variate from Box-Muller
	hasGauss bool
	gauss    float64
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand seeds into full xoshiro state and to derive child streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators constructed with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a child generator whose stream is statistically independent
// of the parent's subsequent outputs. The parent is advanced once.
func (r *RNG) Split() *RNG {
	// Use the parent's next output as the child's seed material.
	seed := r.Uint64()
	return New(seed ^ 0xa0761d6478bd642f)
}

// SplitN derives n child generators in one call.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// step is one xoshiro256** transition on a state held in four values: the
// output and the next state. The scalar methods apply it to r.s; the block
// samplers below keep the state in locals for a whole slice and store it
// back once, which is what lets their loops run at the cost of the
// arithmetic.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// unit maps 64 random bits to a uniform variate in [0, 1).
func unit(bits uint64) float64 { return float64(bits>>11) * (1.0 / (1 << 53)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster; the
	// simple modulo of a 64-bit draw has negligible bias for the n used here.
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place (Fisher-Yates).
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Normal returns a variate from N(mean, stddev^2) via Box-Muller.
func (r *RNG) Normal(mean, stddev float64) float64 {
	if r.hasGauss {
		r.hasGauss = false
		return mean + stddev*r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return mean + stddev*u*f
}

// Laplace returns a variate from the Laplace distribution with the given
// location and scale b > 0 (density 1/(2b) * exp(-|x-loc|/b)). This is the
// noise distribution of the paper's output-perturbation mechanism.
func (r *RNG) Laplace(loc, scale float64) float64 {
	if scale <= 0 {
		panic("rng: Laplace scale must be positive")
	}
	return laplaceAt(r.Float64(), loc, scale)
}

// laplaceAt is Laplace's inverse CDF at the uniform draw f in [0, 1). The
// draw 0 would put u = f − 1/2 on the endpoint −1/2, where log(1+2u) is
// log 0; it maps to u = 0 (the variate loc) instead, which keeps the
// variate finite at one draw per variate.
func laplaceAt(f, loc, scale float64) float64 {
	u := f - 0.5
	if u == -0.5 {
		u = 0
	}
	if u < 0 {
		return loc + scale*math.Log(1+2*u)
	}
	return loc - scale*math.Log(1-2*u)
}

// Exponential returns a variate from Exp(rate).
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential rate must be positive")
	}
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(u) / rate
}

// LogNormal returns a variate X with ln X ~ N(mu, sigma^2). Used by the
// network simulator to model heavy-tailed per-round traffic jitter.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Block samplers. Each draws exactly what the same number of scalar calls
// draws — the same variates bit for bit, from the same generator outputs —
// and leaves the generator (Box-Muller's cached variate included) in the
// state those calls leave it, so a caller may mix the two forms freely.

// FillNormal fills dst with N(mean, stddev^2) variates.
func (r *RNG) FillNormal(dst []float64, mean, stddev float64) {
	r.normals(dst, mean, stddev, false)
}

// AddNormal adds an independent N(mean, stddev^2) variate to every
// element of dst: dst[i] += r.Normal(mean, stddev).
func (r *RNG) AddNormal(dst []float64, mean, stddev float64) {
	r.normals(dst, mean, stddev, true)
}

func (r *RNG) normals(dst []float64, mean, stddev float64, add bool) {
	put := func(i int, x float64) {
		if add {
			x += dst[i]
		}
		dst[i] = x
	}
	i := 0
	if r.hasGauss && len(dst) > 0 {
		r.hasGauss = false
		put(0, mean+stddev*r.gauss)
		i = 1
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; i < len(dst); i += 2 {
		var u, v, s float64
		for {
			var a, b uint64
			a, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			b, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			u = 2*unit(a) - 1
			v = 2*unit(b) - 1
			s = u*u + v*v
			if s > 0 && s < 1 {
				break
			}
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		put(i, mean+stddev*u*f)
		if i+1 < len(dst) {
			put(i+1, mean+stddev*(v*f))
		} else {
			r.gauss, r.hasGauss = v*f, true
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// FillUniform fills dst with uniform variates in [lo, hi). Over [0, 1) the
// elements are exactly the values Float64 returns.
func (r *RNG) FillUniform(dst []float64, lo, hi float64) {
	span := hi - lo
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		var bits uint64
		bits, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		dst[i] = lo + span*unit(bits)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// FillLaplace fills dst with Laplace(loc, scale) variates.
func (r *RNG) FillLaplace(dst []float64, loc, scale float64) {
	r.laplaces(dst, loc, scale, false)
}

// AddLaplace adds an independent Laplace(loc, scale) variate to every
// element of dst: dst[i] += r.Laplace(loc, scale). This is the inner loop
// of the paper's output perturbation, one logarithm per coordinate.
func (r *RNG) AddLaplace(dst []float64, loc, scale float64) {
	r.laplaces(dst, loc, scale, true)
}

func (r *RNG) laplaces(dst []float64, loc, scale float64, add bool) {
	if scale <= 0 {
		panic("rng: Laplace scale must be positive")
	}
	// The uniform draws come a block at a time, so the transform loop has
	// nothing live across its logarithm but its own operands.
	var draws [256]float64
	for len(dst) > 0 {
		m := min(len(dst), len(draws))
		r.FillUniform(draws[:m], 0, 1)
		laplaceBlock(dst[:m], draws[:m], loc, scale, add)
		dst = dst[m:]
	}
}

// laplaceBlock sets (add: adds to) dst[i] the Laplace variate of the
// uniform draw draws[i], as laplaceAt does, endpoint included.
func laplaceBlock(dst, draws []float64, loc, scale float64, add bool) {
	for i, u := range draws {
		u -= 0.5
		if u == -0.5 {
			u = 0
		}
		// Laplace's two branches on the sign of u are one expression:
		// ±scale·log(1−2|u|) carrying u's sign, since 1+2u = 1−2|u|
		// below zero and −x = |x| for the x ≤ 0 a logarithm of at most
		// 1 gives. The sign of a uniform variate is a coin flip no
		// predictor learns.
		x := loc + math.Copysign(scale*math.Log(1-2*math.Abs(u)), u)
		if add {
			x += dst[i]
		}
		dst[i] = x
	}
}
