package f16

import "math"

// The conversions this package replaced, verbatim from the parent tree
// (wire.Float16FromFloat32 / wire.Float16ToFloat64), kept as the reference
// the integer codec is held to bit for bit.

func refFromFloat32(v float32) uint16 {
	b := math.Float32bits(v)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	mant := b & 0x7fffff
	if b>>23&0xff == 0xff { // Inf or NaN
		if mant != 0 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7c00
	}
	if exp >= 0x1f { // overflow → ±Inf
		return sign | 0x7c00
	}
	if exp <= 0 { // subnormal half (or underflow to zero)
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		rem := mant & (1<<shift - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | half
	}
	half := sign | uint16(exp)<<10 | uint16(mant>>13)
	rem := mant & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
		half++ // carry may roll into the exponent; that is the correct rounding
	}
	return half
}

func refToFloat64(h uint16) float64 {
	sign := float64(1)
	if h&0x8000 != 0 {
		sign = -1
	}
	exp := int(h >> 10 & 0x1f)
	mant := int(h & 0x3ff)
	switch exp {
	case 0: // zero or subnormal: mant · 2^-24
		return sign * float64(mant) * 0x1p-24
	case 0x1f:
		if mant != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	default:
		return sign * float64(mant+0x400) * math.Ldexp(1, exp-25)
	}
}
