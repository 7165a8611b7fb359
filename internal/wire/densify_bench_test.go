package wire

import (
	"math"
	"testing"
)

// refDensifyQuant is the parent's quantized branch of Payload.Densify,
// verbatim: the code width is tested per coordinate and the affine
// parameters are reloaded through p.
func refDensifyQuant(p *Payload, dst []float64) {
	n := int(p.Dim)
	w := p.codeWidth()
	for i := 0; i < n; i++ {
		var code uint16
		if w == 1 {
			code = uint16(p.Codes[i])
		} else {
			code = uint16(p.Codes[2*i]) | uint16(p.Codes[2*i+1])<<8
		}
		dst[i] = p.Offset + p.Scale*float64(code)
	}
}

func quantPayload(dim int, bits uint8) *Payload {
	p := &Payload{Enc: EncQuant, Dim: uint32(dim), Bits: bits, Scale: 0x1.3p-9, Offset: -0.0625}
	p.Codes = make([]byte, dim*p.codeWidth())
	s := uint64(1)
	for i := range p.Codes {
		s = s*6364136223846793005 + 1442695040888963407
		p.Codes[i] = byte(s >> 56)
	}
	if bits > 8 { // keep every code below 2^bits
		for i := 1; i < len(p.Codes); i += 2 {
			p.Codes[i] &= 1<<(bits-8) - 1
		}
	}
	return p
}

// TestDensifyQuantMatchesParentLoop: both code widths, odd lengths.
func TestDensifyQuantMatchesParentLoop(t *testing.T) {
	for _, bits := range []uint8{1, 8, 9, 16} {
		for _, dim := range []int{0, 1, 7, 4097} {
			p := quantPayload(dim, bits)
			got, err := p.Densify(nil)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, dim)
			refDensifyQuant(p, want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("bits=%d dim=%d: element %d = %v, parent loop %v", bits, dim, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkDensifyQuant8 is the two-pass server path's (and IIADMM's
// client-side) dequantization over the wide_* workloads' model, next to
// the parent's loop, in Melem/s.
func BenchmarkDensifyQuant8(b *testing.B) {
	const dim = 1017610
	p := quantPayload(dim, 8)
	dst := make([]float64, dim)
	report := func(b *testing.B) {
		b.ReportMetric(float64(dim)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
	}
	b.Run("densify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Densify(dst); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refDensifyQuant(p, dst)
		}
		report(b)
	})
}
