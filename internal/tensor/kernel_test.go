package tensor_test

import (
	"math"
	"testing"

	"repro/internal/f16"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// kernelVec builds a deterministic test vector with values spanning signs
// and magnitudes, sized to cross several kernel blocks plus a ragged tail.
func kernelVec(n int, seed uint64) []float64 {
	r := rng.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = (r.Float64() - 0.5) * 4
	}
	return v
}

const kdim = 3*tensor.KernelBlock + 17

// seqFoldK is the pre-kernel reference: a zero sweep then one full
// accumulator sweep per source.
func seqFoldK(dst []float64, srcs [][]float64, weights []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for k, src := range srcs {
		w := weights[k]
		for i, v := range src {
			dst[i] += w * v
		}
	}
}

func TestFoldKBitIdenticalToSequential(t *testing.T) {
	for _, k := range []int{1, 2, 8, 32} {
		srcs := make([][]float64, k)
		weights := make([]float64, k)
		for j := range srcs {
			srcs[j] = kernelVec(kdim, uint64(100+j))
			weights[j] = 1 / float64(k+j)
		}
		want := make([]float64, kdim)
		seqFoldK(want, srcs, weights)
		got := make([]float64, kdim)
		tensor.FoldK(got, 0, kdim, srcs, weights)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("K=%d: element %d differs: %v vs %v", k, i, got[i], want[i])
			}
		}
		// Split bounds must compose to the same bytes as one full-range call.
		split := make([]float64, kdim)
		mid := kdim/2 + 31
		tensor.FoldK(split, 0, mid, srcs, weights)
		tensor.FoldK(split, mid, kdim, srcs, weights)
		for i := range want {
			if math.Float64bits(split[i]) != math.Float64bits(want[i]) {
				t.Fatalf("K=%d: split fold differs at %d", k, i)
			}
		}
	}
}

func TestFoldKScaledBitIdenticalToSequential(t *testing.T) {
	srcs := make([][]float64, 8)
	alphas := make([]float64, 8)
	for j := range srcs {
		srcs[j] = kernelVec(kdim, uint64(200+j))
		alphas[j] = 0.6 * math.Pow(0.8, float64(j))
	}
	want := kernelVec(kdim, 7)
	got := append([]float64(nil), want...)
	for k, src := range srcs { // reference: K separate whole-vector folds
		a := alphas[k]
		for i, v := range src {
			want[i] = (1-a)*want[i] + a*v
		}
	}
	tensor.FoldKScaled(got, 0, kdim, srcs, alphas)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFoldKDualAndDualStepKBitIdentical(t *testing.T) {
	const k, rho, invP = 5, 2.5, 1.0 / 5
	zs := make([][]float64, k)
	ds := make([][]float64, k)
	dsRef := make([][]float64, k)
	for j := range zs {
		zs[j] = kernelVec(kdim, uint64(300+j))
		ds[j] = kernelVec(kdim, uint64(400+j))
		dsRef[j] = append([]float64(nil), ds[j]...)
	}
	w := kernelVec(kdim, 9)
	wRef := append([]float64(nil), w...)

	// Reference: the pre-kernel serial loops.
	for j := range dsRef {
		for i := range dsRef[j] {
			dsRef[j][i] += rho * (wRef[i] - zs[j][i])
		}
	}
	for i := range wRef {
		wRef[i] = 0
	}
	for j := range zs {
		for i := range wRef {
			wRef[i] += invP * (zs[j][i] - dsRef[j][i]/rho)
		}
	}

	tensor.DualStepK(ds, w, 0, kdim, zs, rho)
	tensor.FoldKDual(w, 0, kdim, zs, ds, invP, rho)
	for j := range ds {
		for i := range ds[j] {
			if math.Float64bits(ds[j][i]) != math.Float64bits(dsRef[j][i]) {
				t.Fatalf("dual %d element %d differs", j, i)
			}
		}
	}
	for i := range w {
		if math.Float64bits(w[i]) != math.Float64bits(wRef[i]) {
			t.Fatalf("w element %d differs: %v vs %v", i, w[i], wRef[i])
		}
	}
}

// encodeF16 packs v as little-endian binary16.
func encodeF16(v []float64) []byte {
	c := make([]byte, 2*len(v))
	for i, x := range v {
		h := f16.FromFloat64(x)
		c[2*i] = byte(h)
		c[2*i+1] = byte(h >> 8)
	}
	return c
}

// fusedSrcs builds one source of each kind, all decoding near the same
// underlying vectors.
func fusedSrcs(t *testing.T) []tensor.FoldSrc {
	t.Helper()
	r := rng.New(55)
	q8 := make([]byte, kdim)
	q16 := make([]byte, 2*kdim)
	for i := 0; i < kdim; i++ {
		q8[i] = byte(r.Uint64())
		c := uint16(r.Uint64())
		q16[2*i] = byte(c)
		q16[2*i+1] = byte(c >> 8)
	}
	return []tensor.FoldSrc{
		{Kind: tensor.SrcDense, Dense: kernelVec(kdim, 500), W: 0.25},
		{Kind: tensor.SrcF16, Codes: encodeF16(kernelVec(kdim, 501)), W: 0.33},
		{Kind: tensor.SrcQuant8, Codes: q8, Scale: 0.013, Offset: -1.6, W: 0.2},
		{Kind: tensor.SrcQuant16, Codes: q16, Scale: 6.3e-5, Offset: -2.05, W: 0.22},
	}
}

// TestFoldKSrcMatchesTwoPass pins the fused kernels bit-identical to the
// two-pass path: densify every source via At, then run the dense kernels.
func TestFoldKSrcMatchesTwoPass(t *testing.T) {
	srcs := fusedSrcs(t)
	dense := make([][]float64, len(srcs))
	weights := make([]float64, len(srcs))
	for k := range srcs {
		dense[k] = make([]float64, kdim)
		for i := range dense[k] {
			dense[k][i] = srcs[k].At(i)
		}
		weights[k] = srcs[k].W
	}

	want := make([]float64, kdim)
	tensor.FoldK(want, 0, kdim, dense, weights)
	got := make([]float64, kdim)
	tensor.FoldKSrc(got, 0, kdim, srcs)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("FoldKSrc element %d differs: %v vs %v", i, got[i], want[i])
		}
	}

	wantS := kernelVec(kdim, 8)
	gotS := append([]float64(nil), wantS...)
	tensor.FoldKScaled(wantS, 0, kdim, dense, weights)
	tensor.FoldKScaledSrc(gotS, 0, kdim, srcs)
	for i := range wantS {
		if math.Float64bits(gotS[i]) != math.Float64bits(wantS[i]) {
			t.Fatalf("FoldKScaledSrc element %d differs: %v vs %v", i, gotS[i], wantS[i])
		}
	}
}

// TestKernelsZeroAllocs pins the steady-state allocation count of every
// kernel at zero — they are the aggregation hot path.
func TestKernelsZeroAllocs(t *testing.T) {
	srcs := fusedSrcs(t)
	dense := [][]float64{kernelVec(kdim, 600), kernelVec(kdim, 601)}
	weights := []float64{0.5, 0.5}
	ds := [][]float64{kernelVec(kdim, 602), kernelVec(kdim, 603)}
	dst := make([]float64, kdim)

	cases := map[string]func(){
		"FoldK":          func() { tensor.FoldK(dst, 0, kdim, dense, weights) },
		"FoldKScaled":    func() { tensor.FoldKScaled(dst, 0, kdim, dense, weights) },
		"FoldKDual":      func() { tensor.FoldKDual(dst, 0, kdim, dense, ds, 0.5, 2) },
		"DualStepK":      func() { tensor.DualStepK(ds, dst, 0, kdim, dense, 2) },
		"FoldKSrc":       func() { tensor.FoldKSrc(dst, 0, kdim, srcs) },
		"FoldKScaledSrc": func() { tensor.FoldKScaledSrc(dst, 0, kdim, srcs) },
	}
	for name, f := range cases {
		if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
			t.Errorf("%s allocates %v per run, want 0", name, allocs)
		}
	}
}
