// Package f16 is the tree's one IEEE-754 binary16 codec: the conversions
// behind the float16 payload encoding (wire), the fused decode-and-fold
// kernels (tensor) and the f16 compression stage and downlink (pipeline).
// Both directions are a handful of integer operations on the bit patterns
// and inline into their callers' loops.
package f16

import (
	"encoding/binary"
	"math"
)

// Max is the largest finite binary16 value.
const Max = 65504

// ToFloat64 converts binary16 bits to float64, exactly. Every NaN pattern
// decodes to math.NaN().
func ToFloat64(h uint16) float64 {
	sign := uint64(h&0x8000) << 48
	em := uint64(h & 0x7fff) // exponent and mantissa
	switch {
	case em >= 0x7c00:
		if em > 0x7c00 {
			return math.NaN()
		}
		return math.Float64frombits(sign | 0x7ff<<52)
	case em < 0x400:
		// Zero or subnormal: mant · 2^-24, an exact product.
		return math.Float64frombits(sign | math.Float64bits(float64(em)*0x1p-24))
	}
	// Normal: the 15 bits sit 42 places up in a float64, and the exponent
	// is re-biased from 15 to 1023.
	return math.Float64frombits(sign | (em<<42 + (1023-15)<<52))
}

// FromFloat64 converts v to binary16 bits with round-to-nearest-even,
// saturating overflow to ±Inf and mapping NaN to the quiet NaN 0x7e00
// (sign kept). It rounds through float32 first; that conversion is itself
// round-to-nearest-even and exact for every value binary16 can represent.
func FromFloat64(v float64) uint16 { return FromFloat32(float32(v)) }

// FromFloat32 converts v to binary16 bits; see FromFloat64.
func FromFloat32(v float32) uint16 {
	const (
		inf32    = 0xff << 23
		overflow = (127 + 16) << 23 // 2^16: everything from here up is ±Inf
	)
	b := math.Float32bits(v)
	sign := uint16(b>>16) & 0x8000
	b &= 0x7fffffff
	if b >= overflow {
		// Inf, or NaN for anything above Inf's pattern: bit 31 of the
		// wrapped difference sets the quiet bit.
		return sign | 0x7c00 | uint16((inf32-b)>>31)<<9
	}
	return sign | roundMagnitude(b)
}

// roundMagnitude rounds a float32 bit pattern with the sign cleared and a
// value below 2^16 to the nearest half, ties to even.
func roundMagnitude(b uint32) uint16 {
	const (
		minNorm = (127 - 14) << 23 // 2^-14: the smallest normal half
		// 0.5f: adding it to a magnitude below 2^-14 leaves the sum's ulp at
		// 2^-24, the spacing of the subnormal halves, so the FPU does the
		// rounding and the sum's low mantissa bits are the answer.
		subMagic = (127 - 1) << 23
	)
	if b < minNorm {
		f := math.Float32frombits(b) + math.Float32frombits(subMagic)
		return uint16(math.Float32bits(f) - subMagic)
	}
	// Normal: re-bias the exponent, add half an ulp (less one when the kept
	// mantissa is even) and truncate. A carry out of the mantissa rolls into
	// the exponent, up to Inf, which is the correct rounding.
	return uint16((b - (127-15)<<23 + 0xfff + b>>13&1) >> 13)
}

// Encode packs v into codes as little-endian halves, two bytes a value,
// and returns -1 — or the index of the first value binary16 cannot hold
// finitely (NaN, ±Inf, magnitude above Max), at which it stops.
// len(codes) must be 2·len(v).
func Encode(codes []byte, v []float64) int {
	codes = codes[:2*len(v)]
	for i, x := range v {
		if !(math.Abs(x) <= Max) {
			return i
		}
		b := math.Float32bits(float32(x))
		binary.LittleEndian.PutUint16(codes[2*i:], uint16(b>>16)&0x8000|roundMagnitude(b&0x7fffffff))
	}
	return -1
}

// Decode expands little-endian halves into dst, exactly.
// len(codes) must be 2·len(dst).
func Decode(dst []float64, codes []byte) {
	codes = codes[:2*len(dst)]
	for i := range dst {
		dst[i] = ToFloat64(binary.LittleEndian.Uint16(codes[2*i:]))
	}
}
