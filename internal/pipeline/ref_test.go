package pipeline

import (
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/wire"
)

// The per-coordinate loops this package's stages replaced, verbatim from
// the parent tree, kept as the references the rewritten loops are held to
// bit for bit and timed against (the ref/ benchmarks).

// refQuantize is the parent's StochasticQuantize.Apply after its
// validation: a fresh code buffer, a math.Floor, a scalar draw and three
// data-dependent branches per coordinate.
func refQuantize(u *Update, bits uint8, r *rng.RNG) {
	v := u.Dense
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
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
	levels := float64(uint32(1)<<bits - 1)
	scale := 0.0
	if hi > lo {
		scale = (hi - lo) / levels
	}
	width := 1
	if bits > 8 {
		width = 2
	}
	codes := make([]byte, width*len(v))
	for i, x := range v {
		var code uint16
		if scale > 0 {
			q := (x - lo) / scale
			fl := math.Floor(q)
			frac := q - fl
			c := fl
			// Stochastic rounding: round up with probability frac, so the
			// quantizer is unbiased.
			if r.Float64() < frac {
				c++
			}
			if c < 0 {
				c = 0
			}
			if c > levels {
				c = levels
			}
			code = uint16(c)
		}
		if width == 1 {
			codes[i] = byte(code)
		} else {
			codes[2*i] = byte(code)
			codes[2*i+1] = byte(code >> 8)
		}
	}
	u.Enc = wire.EncQuant
	u.Scale = scale
	u.Offset = lo
	u.Bits = bits
	u.Codes = codes
	u.Dense = nil
}

// refTopK is the parent's TopKSparsify.Apply: a sort of all n indices by
// (magnitude descending, index ascending) to keep the first k.
func refTopK(u *Update, frac float64) {
	n := len(u.Dense)
	k := int(math.Ceil(frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	v := u.Dense
	sort.Slice(order, func(a, b int) bool {
		ma, mb := math.Abs(v[order[a]]), math.Abs(v[order[b]])
		if ma != mb {
			return ma > mb
		}
		return order[a] < order[b]
	})
	keep := order[:k]
	sort.Ints(keep)
	u.Indices = make([]uint32, k)
	u.Values = make([]float64, k)
	for i, idx := range keep {
		u.Indices[i] = uint32(idx)
		u.Values[i] = v[idx]
	}
	u.Enc = wire.EncSparse
	u.Dense = nil
}
