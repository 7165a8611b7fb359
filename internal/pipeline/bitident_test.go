package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// identVecs are inputs that reach every special case of the stage loops:
// a smooth random vector, heavy ties, constant and all-zero vectors, mixed
// signed zeros, extreme ranges, and orders that defeat naive pivots.
func identVecs(n int) map[string][]float64 {
	r := rng.New(uint64(n) + 5)
	random := make([]float64, n)
	ties := make([]float64, n)
	zeros := make([]float64, n)
	constant := make([]float64, n)
	signedZeros := make([]float64, n)
	wide := make([]float64, n)
	asc := make([]float64, n)
	pipe := make([]float64, n)
	for i := range random {
		random[i] = (r.Float64() - 0.5) * 0.2
		ties[i] = float64(r.Intn(5)-2) * 0.25
		constant[i] = -3.75
		signedZeros[i] = math.Copysign(0, float64(i%2)-0.5)
		wide[i] = math.Ldexp(r.Float64()-0.5, r.Intn(600)-300)
		asc[i] = float64(i) * 1e-3
		pipe[i] = float64(min(i, n-1-i))
	}
	if n > 2 {
		signedZeros[n/2] = 1e-300
		wide[0], wide[n-1] = math.MaxFloat64/4, -math.MaxFloat64/4
	}
	return map[string][]float64{"random": random, "ties": ties, "zeros": zeros, "constant": constant,
		"signedZeros": signedZeros, "wide": wide, "asc": asc, "pipe": pipe}
}

var identDims = []int{0, 1, 2, 3, 31, 33, 511, 512, 513, 1025, 5000}

// TestQuantizeMatchesParentLoop: at every width, over every input shape,
// two consecutive releases carry the parent loop's Scale, Offset and codes
// and consume the parent loop's draws.
func TestQuantizeMatchesParentLoop(t *testing.T) {
	for _, n := range identDims {
		for name, v := range identVecs(n) {
			for bits := 1; bits <= 16; bits++ {
				s, err := NewStochasticQuantize(bits, rng.New(11))
				if err != nil {
					t.Fatal(err)
				}
				ref := rng.New(11)
				for release := 0; release < 2; release++ {
					got, want := NewDense(slices.Clone(v)), NewDense(slices.Clone(v))
					if err := s.Apply(got, 0); err != nil {
						t.Fatal(err)
					}
					refQuantize(want, uint8(bits), ref)
					if got.Enc != want.Enc || got.Bits != want.Bits || got.Dim != want.Dim ||
						math.Float64bits(got.Scale) != math.Float64bits(want.Scale) ||
						math.Float64bits(got.Offset) != math.Float64bits(want.Offset) ||
						!bytes.Equal(got.Codes, want.Codes) || got.Dense != nil {
						t.Fatalf("%s n=%d bits=%d release %d: payload differs from the parent loop's", name, n, bits, release)
					}
				}
				if g, w := s.r.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("%s n=%d bits=%d: generator left in a different state", name, n, bits)
				}
			}
		}
	}
}

// TestTopKSelectionMatchesSort: the selection keeps exactly the survivors
// the parent's full sort kept, in the same order, at every fraction —
// including through runs of equal magnitudes, where the lower index wins.
func TestTopKSelectionMatchesSort(t *testing.T) {
	for _, n := range identDims {
		for name, v := range identVecs(n) {
			if name == "signedZeros" && n > 0 {
				v[0] = math.Inf(-1) // an infinity is a magnitude like any other
			}
			for _, frac := range []float64{1e-9, 0.01, 0.1, 0.5, 0.999, 1} {
				s, err := NewTopKSparsify(frac)
				if err != nil {
					t.Fatal(err)
				}
				for release := 0; release < 2; release++ {
					got, want := NewDense(slices.Clone(v)), NewDense(slices.Clone(v))
					if err := s.Apply(got, 0); err != nil {
						t.Fatal(err)
					}
					refTopK(want, frac)
					same := got.Enc == want.Enc && got.Dim == want.Dim && got.Dense == nil &&
						slices.Equal(got.Indices, want.Indices) && len(got.Values) == len(want.Values)
					for i := 0; same && i < len(want.Values); i++ {
						same = math.Float64bits(got.Values[i]) == math.Float64bits(want.Values[i])
					}
					if !same {
						t.Fatalf("%s n=%d frac=%g release %d: kept %d survivors %v…, the sort keeps %d %v…", name, n, frac, release,
							len(got.Indices), head(got.Indices), len(want.Indices), head(want.Indices))
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("%s n=%d frac=%g: %v", name, n, frac, err)
					}
				}
			}
		}
	}
}

func head(v []uint32) []uint32 { return v[:min(len(v), 8)] }

// TestKthSmallestSurvivesBadPivots: inputs built to make median-of-three
// degenerate still return the right element (the sort fallback).
func TestKthSmallestSurvivesBadPivots(t *testing.T) {
	for _, n := range []int{1, 2, 33, 64, 1000, 4096} {
		for shape := 0; shape < 4; shape++ {
			a := make([]uint64, n)
			for i := range a {
				switch shape {
				case 0:
					a[i] = uint64(i)
				case 1:
					a[i] = uint64(n - i)
				case 2:
					a[i] = uint64(i % 3)
				case 3: // median-of-three killer: alternating extremes
					a[i] = uint64(i%2) * uint64(i)
				}
			}
			sorted := slices.Clone(a)
			slices.Sort(sorted)
			for _, k := range []int{0, n / 3, n / 2, n - 1} {
				if got := kthSmallest(slices.Clone(a), k); got != sorted[k] {
					t.Fatalf("n=%d shape %d k=%d: got %d, want %d", n, shape, k, got, sorted[k])
				}
			}
		}
	}
}

// TestStageBuffersAreReusedNotShared: a stage's release buffers are
// recycled by its next Apply (the documented lifetime) and never shared
// between two stages.
func TestStageBuffersAreReusedNotShared(t *testing.T) {
	v := identVecs(1025)["random"]
	q1, _ := NewStochasticQuantize(8, rng.New(1))
	q2, _ := NewStochasticQuantize(8, rng.New(1))
	a, b, c := NewDense(slices.Clone(v)), NewDense(slices.Clone(v)), NewDense(slices.Clone(v))
	for _, step := range []struct {
		s *StochasticQuantize
		u *Update
	}{{q1, a}, {q2, b}} {
		if err := step.s.Apply(step.u, 0); err != nil {
			t.Fatal(err)
		}
	}
	if &a.Codes[0] == &b.Codes[0] {
		t.Fatal("two stages released into one buffer")
	}
	first := slices.Clone(a.Codes)
	if err := q1.Apply(c, 0); err != nil {
		t.Fatal(err)
	}
	if &a.Codes[0] != &c.Codes[0] {
		t.Fatal("the stage's second release did not reuse its buffer")
	}
	if !bytes.Equal(b.Codes, first) {
		t.Fatal("one stage's second release disturbed another stage's codes")
	}
}

// TestEncodeFloat16RejectsWhatTheParentRejected: the block encoder stops
// at the same coordinate with the same error for every unrepresentable
// value.
func TestEncodeFloat16RejectsWhatTheParentRejected(t *testing.T) {
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 65504.00000001, -65505, 1e10} {
		v := []float64{1, -2, bad, 3}
		_, err := EncodeFloat16(v, nil)
		if want := fmt.Sprintf("coordinate 2 = %v", bad); err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("case %d: EncodeFloat16 error %v, want one naming %s", i, err, want)
		}
	}
	for _, ok := range []float64{65504, -65504, 0, math.Copysign(0, -1), 5e-324} {
		if _, err := EncodeFloat16([]float64{ok}, nil); err != nil {
			t.Errorf("EncodeFloat16(%v): %v", ok, err)
		}
	}
}
