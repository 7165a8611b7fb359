package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/dp"
	"repro/internal/f16"
	"repro/internal/rng"
	"repro/internal/wire"
)

var inf = math.Inf(1)

// ---------------------------------------------------------------------------
// ClipL2 — the training-time privacy stage.

// ClipL2 bounds the L2 norm of every local gradient at C. It is a
// training-time stage: clipping is what makes the DP sensitivity of the
// release finite, so it acts on gradients via GradHook, not on the
// released vector (matching Eq. (6): the release itself is not renormed).
// Apply and Invert are the identity.
type ClipL2 struct {
	C float64
}

// NewClipL2 builds the stage; c must be positive.
func NewClipL2(c float64) (*ClipL2, error) {
	if math.IsNaN(c) || c <= 0 {
		return nil, fmt.Errorf("%w: clip bound must be positive, got %v", ErrSpec, c)
	}
	return &ClipL2{C: c}, nil
}

// Name returns "clip".
func (s *ClipL2) Name() string { return "clip" }

// Spec renders the stage.
func (s *ClipL2) Spec() string { return fmt.Sprintf("clip:%g", s.C) }

// Apply is the identity: clipping happens during training.
func (s *ClipL2) Apply(u *Update, sens float64) error { return nil }

// Invert is the identity.
func (s *ClipL2) Invert(u *Update) error { return nil }

// gradHook clips one gradient in place.
func (s *ClipL2) gradHook(g []float64) { dp.ClipL2(g, s.C) }

// ---------------------------------------------------------------------------
// Noise stages — Laplace and Gaussian output/objective perturbation.

// noiseCore holds everything the DP noise stages share: the mechanism,
// its finite budget, whether an RNG was attached at build time, and the
// per-client objective-perturbation flag. LaplaceNoise and GaussianNoise
// are thin typed wrappers that only differ in Name/Spec rendering.
type noiseCore struct {
	mech      dp.Mechanism
	eps       float64 // finite per-release budget (+Inf = noise disabled)
	hasRNG    bool
	objective bool
}

// apply perturbs the dense release, unless the noise already entered
// through the objective this round. Invert is the identity — noise is
// deliberately not removable; that is the privacy guarantee.
func (n *noiseCore) apply(u *Update, sens float64) error {
	if n.objective {
		return nil
	}
	if u.Enc != wire.EncDense {
		return fmt.Errorf("%w: noise requires a dense update, got %s", ErrSpec, u.Enc)
	}
	if !n.hasRNG && !math.IsInf(n.eps, 1) && sens != 0 {
		return ErrNeedRNG
	}
	n.mech.Perturb(u.Dense, sens)
	return nil
}

func (n *noiseCore) epsilon() float64 {
	if math.IsInf(n.eps, 1) {
		return 0
	}
	return n.eps
}

func (n *noiseCore) roundNoise(dim int, sens float64) []float64 {
	return dp.ObjectiveNoise(n.mech, dim, sens)
}

func (n *noiseCore) setObjective(v bool) { n.objective = v }

// Mechanism exposes the underlying dp mechanism (for accounting).
func (n *noiseCore) Mechanism() dp.Mechanism { return n.mech }

// LaplaceNoise is the ε̄-DP output-perturbation stage of Eq. (6): each
// coordinate of the release receives independent Laplace(0, Δ̄/ε̄) noise.
// In objective mode the noise instead enters the local objective once per
// round.
type LaplaceNoise struct {
	noiseCore
	lap *dp.Laplace
}

// NewLaplaceNoise builds the stage. r may be nil for a server-side
// (inverse-only) pipeline; such a stage cannot Apply.
func NewLaplaceNoise(eps float64, r *rng.RNG) (*LaplaceNoise, error) {
	m, err := dp.NewLaplace(eps, r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return &LaplaceNoise{noiseCore: noiseCore{mech: m, eps: m.Eps, hasRNG: r != nil}, lap: m}, nil
}

// Name returns "laplace".
func (s *LaplaceNoise) Name() string { return "laplace" }

// Spec renders the stage.
func (s *LaplaceNoise) Spec() string { return fmt.Sprintf("laplace:%g", s.lap.Eps) }

// Apply perturbs the dense release (output mode only).
func (s *LaplaceNoise) Apply(u *Update, sens float64) error { return s.apply(u, sens) }

// Invert is the identity: the noise is the privacy guarantee.
func (s *LaplaceNoise) Invert(u *Update) error { return nil }

// GaussianNoise is the (ε, δ)-DP Gaussian analog of LaplaceNoise.
type GaussianNoise struct {
	noiseCore
	gauss *dp.Gaussian
}

// NewGaussianNoise builds the stage; r may be nil for inverse-only use.
func NewGaussianNoise(eps, delta float64, r *rng.RNG) (*GaussianNoise, error) {
	m, err := dp.NewGaussian(eps, delta, r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return &GaussianNoise{noiseCore: noiseCore{mech: m, eps: m.Eps, hasRNG: r != nil}, gauss: m}, nil
}

// Name returns "gaussian".
func (s *GaussianNoise) Name() string { return "gaussian" }

// Spec renders the stage.
func (s *GaussianNoise) Spec() string {
	return fmt.Sprintf("gaussian:%g:%g", s.gauss.Eps, s.gauss.Delta)
}

// Apply perturbs the dense release (output mode only).
func (s *GaussianNoise) Apply(u *Update, sens float64) error { return s.apply(u, sens) }

// Invert is the identity.
func (s *GaussianNoise) Invert(u *Update) error { return nil }

// ---------------------------------------------------------------------------
// TopKSparsify — magnitude sparsification.

// TopKSparsify keeps only the k = ceil(Frac·dim) coordinates of largest
// magnitude and ships them as (index, value) pairs — the classic
// bandwidth/accuracy trade: upload shrinks to roughly 1.5·Frac of the
// dense size (4-byte index + 8-byte value per survivor vs 8 bytes per
// coordinate). Invert scatters the survivors into a zero vector.
// Selection is deterministic; ties break toward the lower index.
//
// What is sparsified is the released vector itself, so at Frac the model
// arrives with a (1−Frac) share of its coordinates zeroed each round and
// does not train at scale (ROADMAP). Sparsifying the delta from the
// dispatched model with error feedback is the fix; it changes every
// trajectory and is deliberately not part of this stage yet.
//
// The survivors of a release live in buffers the stage owns: they are
// valid until the stage's next Apply, by which time every transport has
// serialised the update that carries them.
type TopKSparsify struct {
	Frac float64

	keys    []uint64 // selection scratch: the magnitudes, permuted
	indices []uint32
	values  []float64
}

// NewTopKSparsify builds the stage; frac must be in (0,1].
func NewTopKSparsify(frac float64) (*TopKSparsify, error) {
	if math.IsNaN(frac) || frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("%w: topk fraction must be in (0,1], got %v", ErrSpec, frac)
	}
	return &TopKSparsify{Frac: frac}, nil
}

// Name returns "topk".
func (s *TopKSparsify) Name() string { return "topk" }

// Spec renders the stage.
func (s *TopKSparsify) Spec() string { return fmt.Sprintf("topk:%g", s.Frac) }

// magnitude is |x| as an integer key: non-negative floats order like their
// bit patterns, ±0 share a key, and a NaN sorts above +Inf instead of
// breaking the order.
func magnitude(x float64) uint64 { return math.Float64bits(x) &^ (1 << 63) }

// Apply converts a dense update to the sparse encoding. The survivors are
// the first k coordinates under (magnitude descending, index ascending) —
// a strict total order, so instead of sorting all n indices by it, a
// selection finds the k-th largest magnitude t and one sweep in index
// order keeps everything above t plus the first ties at t: the same set,
// already in index order.
func (s *TopKSparsify) Apply(u *Update, sens float64) error {
	if u.Enc != wire.EncDense {
		return fmt.Errorf("%w: topk requires a dense update, got %s", ErrSpec, u.Enc)
	}
	v := u.Dense
	n := len(v)
	k := int(math.Ceil(s.Frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
	}
	if cap(s.indices) < k {
		s.indices, s.values = make([]uint32, k), make([]float64, k)
	}
	indices, values := s.indices[:0], s.values[:0]
	if k > 0 {
		keys := s.keys[:n]
		for i, x := range v {
			keys[i] = magnitude(x)
		}
		t := kthSmallest(keys, n-k)
		ties := k
		for _, x := range v {
			if magnitude(x) > t {
				ties--
			}
		}
		for i, x := range v {
			if m := magnitude(x); m > t || (m == t && ties > 0) {
				if m == t {
					ties--
				}
				indices, values = append(indices, uint32(i)), append(values, x)
			}
		}
	}
	u.Indices, u.Values = indices, values
	u.Enc = wire.EncSparse
	u.Dense = nil
	return nil
}

// kthSmallest returns the element a sorted a would hold at index k,
// permuting a: a quickselect over three-way partitions (runs of equal
// magnitudes, zeros above all, cost one pass), falling back to sorting
// what is left once the range is small or the pivots have been unlucky
// 2·log2(n) times.
func kthSmallest(a []uint64, k int) uint64 {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 32 && budget > 0; budget-- {
		p := median(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// a[lo:lt] < p, a[lt:i] == p, a[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := a[i]; {
			case x < p:
				a[lt], a[i] = x, a[lt]
				lt++
				i++
			case x > p:
				gt--
				a[i], a[gt] = a[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	slices.Sort(a[lo:hi])
	return a[k]
}

func median(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}

// Invert scatters the sparse survivors into a zero dense vector.
func (s *TopKSparsify) Invert(u *Update) error {
	if u.Enc != wire.EncSparse {
		return fmt.Errorf("%w: expected sparse encoding, got %s", ErrSpec, u.Enc)
	}
	dense, err := u.Densify(u.Dense[:0])
	if err != nil {
		return err
	}
	u.Enc = wire.EncDense
	u.Dense = dense
	u.Indices, u.Values = u.Indices[:0], u.Values[:0]
	return nil
}

// ---------------------------------------------------------------------------
// StochasticQuantize — affine quantization with stochastic rounding.

// StochasticQuantize maps each coordinate to one of 2^Bits−1 evenly spaced
// levels between the vector's min and max, rounding stochastically so the
// quantizer is unbiased (E[dequant] = value). Codes pack one per byte for
// Bits ≤ 8 and one per two bytes above, so quantize:8 cuts upload ~8×.
// Invert dequantizes deterministically from (Scale, Offset, Codes).
//
// The codes of a release live in a buffer the stage owns: they are valid
// until the stage's next Apply, by which time every transport has
// serialised the update that carries them.
type StochasticQuantize struct {
	Bits  uint8
	r     *rng.RNG
	codes []byte
}

// NewStochasticQuantize builds the stage; bits must be in [1,16]. r may be
// nil for a server-side (inverse-only) pipeline; such a stage cannot Apply.
func NewStochasticQuantize(bits int, r *rng.RNG) (*StochasticQuantize, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("%w: quantize bits must be in [1,16], got %d", ErrSpec, bits)
	}
	return &StochasticQuantize{Bits: uint8(bits), r: r}, nil
}

// Name returns "quantize".
func (s *StochasticQuantize) Name() string { return "quantize" }

// Spec renders the stage.
func (s *StochasticQuantize) Spec() string { return fmt.Sprintf("quantize:%d", s.Bits) }

// Apply converts a dense update to the quantized encoding.
func (s *StochasticQuantize) Apply(u *Update, sens float64) error {
	if u.Enc != wire.EncDense {
		return fmt.Errorf("%w: quantize requires a dense update, got %s", ErrSpec, u.Enc)
	}
	if s.r == nil {
		return ErrNeedRNG
	}
	v := u.Dense
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, x := range v {
		// A NaN/Inf coordinate means local training diverged. Refuse to
		// quantize it: uint16(NaN) is implementation-defined, so encoding
		// would silently launder the divergence into plausible values.
		// The dense path ships such vectors visibly; surface an error here.
		if x-x != 0 { // NaN or ±Inf
			return fmt.Errorf("%w: quantize requires finite values, coordinate %d is %v", ErrSpec, i, x)
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if math.IsInf(lo, 1) { // empty vector: degenerate to zeros
		lo = 0
	}
	levels := int(1)<<s.Bits - 1
	scale := 0.0
	if hi > lo {
		scale = (hi - lo) / float64(levels)
	}
	width := 1
	if s.Bits > 8 {
		width = 2
	}
	s.codes = sized(s.codes, width*len(v))
	if scale > 0 {
		s.encode(v, lo, scale, levels, width == 2)
	} else {
		clear(s.codes) // a constant vector: every code 0, no draw consumed
	}
	u.Enc = wire.EncQuant
	u.Scale = scale
	u.Offset = lo
	u.Bits = s.Bits
	u.Codes = s.codes
	u.Dense = nil
	return nil
}

// encode writes v's codes at a positive scale, one uniform draw per
// coordinate. The draws come a block at a time (the generator's state
// stays in registers for the block), which leaves the rounding loops free
// of everything but their arithmetic; they differ only in the store.
func (s *StochasticQuantize) encode(v []float64, lo, scale float64, levels int, wide bool) {
	var draws [512]float64
	codes := s.codes
	for len(v) > 0 {
		m := min(len(v), len(draws))
		u := draws[:m]
		s.r.FillUniform(u, 0, 1)
		if wide {
			for j, x := range v[:m] {
				binary.LittleEndian.PutUint16(codes[2*j:], uint16(quantum(x, lo, scale, u[j], levels)))
			}
			codes = codes[2*m:]
		} else {
			for j, x := range v[:m] {
				codes[j] = byte(quantum(x, lo, scale, u[j], levels))
			}
			codes = codes[m:]
		}
		v = v[m:]
	}
}

// quantum is the code of x: its position q ≥ 0 on the level grid rounded
// down, plus one with probability q's fractional part (u is the uniform
// draw), at most levels — division may land the maximum a hair above the
// top level. q ≥ 0 makes the integer conversion a floor, and both u and
// the fraction are non-negative floats, which order like their bit
// patterns: the round-up is a subtraction's sign bit, not a branch on a
// coin flip.
func quantum(x, lo, scale, u float64, levels int) int {
	q := (x - lo) / scale
	c := int(q)
	c += int((math.Float64bits(u) - math.Float64bits(q-float64(c))) >> 63)
	return min(c, levels)
}

// Invert dequantizes back to a dense vector.
func (s *StochasticQuantize) Invert(u *Update) error {
	if u.Enc != wire.EncQuant {
		return fmt.Errorf("%w: expected quant encoding, got %s", ErrSpec, u.Enc)
	}
	if u.Bits != s.Bits {
		return fmt.Errorf("%w: quantized at %d bits, stack configured for %d", ErrSpec, u.Bits, s.Bits)
	}
	dense, err := u.Densify(u.Dense[:0])
	if err != nil {
		return err
	}
	u.Enc = wire.EncDense
	u.Dense = dense
	u.Scale, u.Offset, u.Bits, u.Codes = 0, 0, 0, u.Codes[:0]
	return nil
}

// ---------------------------------------------------------------------------
// Float16Cast — half-precision casting.

// Float16Cast ships each coordinate as an IEEE-754 binary16 — a 4×
// reduction with ~3 decimal digits of precision, the cheapest lossy
// compressor. Deterministic (round-to-nearest-even) in both directions.
type Float16Cast struct{}

// NewFloat16Cast builds the stage.
func NewFloat16Cast() (*Float16Cast, error) { return &Float16Cast{}, nil }

// Name returns "f16".
func (s *Float16Cast) Name() string { return "f16" }

// Spec renders the stage.
func (s *Float16Cast) Spec() string { return "f16" }

// EncodeFloat16 packs v as little-endian half floats into codes, reusing
// its capacity when it suffices, and returns the (possibly grown) buffer.
// Values binary16 cannot represent finitely — NaN, Inf, or magnitude
// above 65504 — are rejected rather than saturated: shipping a diverged
// vector as plausible-looking (or infinite) codes would launder the
// failure into the aggregate instead of surfacing it.
func EncodeFloat16(v []float64, codes []byte) ([]byte, error) {
	codes = sized(codes, 2*len(v))
	if i := f16.Encode(codes, v); i >= 0 {
		return codes, errFloat16Range(i, v[i])
	}
	return codes, nil
}

func errFloat16Range(i int, x float64) error {
	return fmt.Errorf("%w: f16 cannot represent coordinate %d = %v (max magnitude %v)", ErrSpec, i, x, float64(f16.Max))
}

// sized returns buf with length n, reallocated only when its capacity
// falls short; the contents are unspecified.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// Apply converts a dense update to packed half floats; see EncodeFloat16
// for the rejection rule on unrepresentable values.
func (s *Float16Cast) Apply(u *Update, sens float64) error {
	if u.Enc != wire.EncDense {
		return fmt.Errorf("%w: f16 requires a dense update, got %s", ErrSpec, u.Enc)
	}
	codes, err := EncodeFloat16(u.Dense, nil)
	if err != nil {
		return err
	}
	u.Enc = wire.EncFloat16
	u.Codes = codes
	u.Dense = nil
	return nil
}

// Invert expands the half floats back to float64.
func (s *Float16Cast) Invert(u *Update) error {
	if u.Enc != wire.EncFloat16 {
		return fmt.Errorf("%w: expected float16 encoding, got %s", ErrSpec, u.Enc)
	}
	dense, err := u.Densify(u.Dense[:0])
	if err != nil {
		return err
	}
	u.Enc = wire.EncDense
	u.Dense = dense
	u.Codes = u.Codes[:0]
	return nil
}
