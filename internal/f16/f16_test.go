package f16

import (
	"math"
	"testing"
)

// TestDecodeMatchesParentExhaustively: all 65 536 patterns, bit for bit
// (NaN included: both sides return math.NaN()).
func TestDecodeMatchesParentExhaustively(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		got, want := math.Float64bits(ToFloat64(uint16(h))), math.Float64bits(refToFloat64(uint16(h)))
		if got != want {
			t.Fatalf("ToFloat64(%#04x) = %#016x, parent %#016x", h, got, want)
		}
	}
}

// encodeProbes returns float32 bit patterns around every place the
// rounding can go wrong: for every exponent, the mantissas at and next to
// each round-to-even tie (the kept bit even and odd), the mantissa's ends
// (carry into the exponent), and for the exponents that land on subnormal
// halves every tie position of the wider shift.
func encodeProbes() []uint32 {
	var mants []uint32
	for _, base := range []uint32{0, 0x1000, 0x2000, 0x3000, 0x7fe000, 0x7ff000, 0x400000, 0x3ff000} {
		for d := -2; d <= 2; d++ {
			mants = append(mants, (base+uint32(d))&0x7fffff)
		}
	}
	for shift := uint(0); shift < 23; shift++ {
		for _, m := range []uint32{1 << shift, 1<<shift - 1, 1<<shift + 1, 3 << shift, 3<<shift - 1, 3<<shift + 1, 0x7fffff &^ (1<<shift - 1)} {
			mants = append(mants, m&0x7fffff)
		}
	}
	var out []uint32
	for exp := uint32(0); exp < 256; exp++ {
		for _, m := range mants {
			out = append(out, exp<<23|m, 1<<31|exp<<23|m)
		}
	}
	return out
}

// TestEncodeMatchesParentAtEveryBoundary: every float32 exponent crossed
// with the tie/carry mantissas, every value a half can hold, and a strided
// sweep of the whole float32 space.
func TestEncodeMatchesParentAtEveryBoundary(t *testing.T) {
	check := func(b uint32) {
		v := math.Float32frombits(b)
		if got, want := FromFloat32(v), refFromFloat32(v); got != want {
			t.Fatalf("FromFloat32(%#08x = %g) = %#04x, parent %#04x", b, v, got, want)
		}
	}
	for _, b := range encodeProbes() {
		check(b)
	}
	for h := 0; h < 1<<16; h++ {
		v := refToFloat64(uint16(h))
		if v != v {
			continue
		}
		if got := FromFloat64(v); got != uint16(h) {
			t.Fatalf("FromFloat64(ToFloat64(%#04x)) = %#04x", h, got)
		}
		// One float32 ulp either side of every representable half.
		b := math.Float32bits(float32(v))
		check(b - 1)
		check(b + 1)
	}
	stride := uint32(4099)
	if testing.Short() {
		stride = 65537
	}
	for b := uint32(0); b < math.MaxUint32-stride; b += stride {
		check(b)
	}
}

// TestFromFloat64RoundsThroughFloat32: the double conversion is the
// parent's, including where it differs from a direct rounding.
func TestFromFloat64RoundsThroughFloat32(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 65504, 65519.99, 65520, 1e300, -1e300,
		0x1p-24, 0x1p-25, 0x1p-25 + 0x1p-60, 1 + 0x1p-11, 1 + 0x1p-11 + 0x1p-40, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324} {
		if got, want := FromFloat64(v), refFromFloat32(float32(v)); got != want {
			t.Errorf("FromFloat64(%g) = %#04x, parent %#04x", v, got, want)
		}
	}
}

// TestBlocksMatchScalars: Encode and Decode are the scalar
// conversions applied in order, and Encode stops where the parent's range
// check stopped.
func TestBlocksMatchScalars(t *testing.T) {
	var v []float64
	for h := 0; h < 1<<16; h += 7 {
		if x := refToFloat64(uint16(h)); x == x && math.Abs(x) <= Max {
			v = append(v, x, x*(1+0x1p-12), x*(1-0x1p-13))
		}
	}
	codes := make([]byte, 2*len(v))
	if i := Encode(codes, v); i != -1 {
		t.Fatalf("Encode stopped at %d (%v)", i, v[i])
	}
	back := make([]float64, len(v))
	Decode(back, codes)
	for i, x := range v {
		want := refFromFloat32(float32(x))
		if got := uint16(codes[2*i]) | uint16(codes[2*i+1])<<8; got != want {
			t.Fatalf("Encode(%v) = %#04x, parent %#04x", x, got, want)
		}
		if math.Float64bits(back[i]) != math.Float64bits(refToFloat64(want)) {
			t.Fatalf("Decode(%#04x) = %v, parent %v", want, back[i], refToFloat64(want))
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 65504.0000001, -65520} {
		w := []float64{1, 2, bad, 3}
		if i := Encode(make([]byte, 8), w); i != 2 {
			t.Errorf("Encode(…, %v, …) stopped at %d, want 2", bad, i)
		}
	}
}

// The half-float loops over the wide_* workloads' model (1 017 610
// parameters), each next to the parent's loop, in Melem/s.

const benchDim = 1017610

func benchValues() []float64 {
	v := make([]float64, benchDim)
	s := uint64(1)
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = (float64(s>>11)/(1<<53) - 0.5) * 0.16
	}
	return v
}

func reportMelems(b *testing.B) {
	b.ReportMetric(float64(benchDim)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
}

// BenchmarkEncode is the downlink encode (pipeline.EncodeFloat16's loop).
func BenchmarkEncode(b *testing.B) {
	v, codes := benchValues(), make([]byte, 2*benchDim)
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Encode(codes, v)
		}
		reportMelems(b)
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range v {
				if math.IsNaN(x) || math.Abs(x) > Max {
					b.Fatal(j)
				}
				h := refFromFloat32(float32(x))
				codes[2*j] = byte(h)
				codes[2*j+1] = byte(h >> 8)
			}
		}
		reportMelems(b)
	})
}

// BenchmarkDecode is every client's downlink densify (Payload.Densify's
// float16 loop).
func BenchmarkDecode(b *testing.B) {
	codes, dst := make([]byte, 2*benchDim), make([]float64, benchDim)
	Encode(codes, benchValues())
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Decode(dst, codes)
		}
		reportMelems(b)
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = refToFloat64(uint16(codes[2*j]) | uint16(codes[2*j+1])<<8)
			}
		}
		reportMelems(b)
	})
}
