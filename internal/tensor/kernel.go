package tensor

import (
	"fmt"

	"repro/internal/f16"
)

// ---------------------------------------------------------------------------
// Aggregation kernels.
//
// The federated hot path is a memory-bound fold: every round the server
// combines K cohort updates (K model-sized float64 vectors) into the
// global accumulator. Folding them one update at a time sweeps the
// accumulator through DRAM K times — at 1M+ dimensions the accumulator
// chunk is far bigger than L1/L2, so each sweep re-reads and re-writes
// it from memory and the arithmetic is irrelevant next to the traffic.
//
// The kernels here are cache-blocked K-way folds over flat slices: the
// index space is processed in KernelBlock-sized blocks, and within a
// block all K sources fold before moving on. The block stays resident in
// L1/L2 across the K passes, so the accumulator crosses DRAM once per
// fold instead of K times — the memory traffic drops from roughly
// (2K+K)·8 bytes per element to (K+2)·8, a >2x win at K=8.
//
// Bit-identity is a hard invariant: per element, every kernel performs
// exactly the floating-point operations of the one-update-at-a-time
// loop, in the same order (fold order = source order). Blocking changes
// only the order in which *independent elements* are visited, never the
// operation sequence of any single element, so the result is
// byte-for-byte identical to the naive loop at any block size.
//
// All kernels take (lo, hi) bounds over full backing slices rather than
// pre-sliced views, so a sharded caller can dispatch chunks to workers
// without allocating per-chunk slice headers.

// KernelBlock is the fold block size in elements: 2048 float64s = 16 KiB,
// half a typical 32 KiB L1d, leaving room for one source block alongside
// the accumulator block.
const KernelBlock = 2048

// FoldK computes the K-way weighted accumulation
//
//	dst[i] = Σ_k weights[k]·srcs[k][i]   for i in [lo,hi)
//
// zeroing dst first and folding sources in order — per element exactly
// the operations of a zero sweep followed by K axpy sweeps, in one
// cache-blocked pass. This is the FedAvg batch kernel: weights are the
// normalized sample counts.
// Sources fold pairwise: d[i] = d[i] + w1·s1[i] + w2·s2[i] is evaluated
// left-to-right (Go never reassociates floats), so the operation sequence
// per element is exactly that of two single-source sweeps — still
// bit-identical — while halving the accumulator load/stores and giving
// the two products independent pipelines.
func FoldK(dst []float64, lo, hi int, srcs [][]float64, weights []float64) {
	for b := lo; b < hi; b += KernelBlock {
		be := min(b+KernelBlock, hi)
		d := dst[b:be]
		for i := range d {
			d[i] = 0
		}
		k := 0
		for ; k+1 < len(srcs); k += 2 {
			w1, w2 := weights[k], weights[k+1]
			s1 := srcs[k][b:be]
			s2 := srcs[k+1][b:be]
			_ = s2[len(d)-1] // one bound check for the pair
			for i := range d {
				d[i] = d[i] + w1*s1[i] + w2*s2[i]
			}
		}
		for ; k < len(srcs); k++ {
			w := weights[k]
			s := srcs[k][b:be]
			for i, v := range s {
				d[i] += w * v
			}
		}
	}
}

// FoldKScaled applies K sequential convex folds
//
//	dst[i] ← (1−alphas[k])·dst[i] + alphas[k]·srcs[k][i]   for k = 0..K−1
//
// in one cache-blocked pass: within a block, source k fully folds before
// source k+1, so each element sees exactly the operation sequence of K
// separate whole-vector sweeps. This is the staleness-weighted buffered
// rule batched over one release.
func FoldKScaled(dst []float64, lo, hi int, srcs [][]float64, alphas []float64) {
	for b := lo; b < hi; b += KernelBlock {
		be := min(b+KernelBlock, hi)
		d := dst[b:be]
		for k, src := range srcs {
			a := alphas[k]
			na := 1 - a
			s := src[b:be]
			for i, v := range s {
				d[i] = na*d[i] + a*v
			}
		}
	}
}

// FoldKDual computes the ADMM consensus fold
//
//	dst[i] = Σ_k invP·(zs[k][i] − ds[k][i]/rho)   for i in [lo,hi)
//
// zero-then-accumulate in source order, cache-blocked. The division by
// rho is kept per element (not precomputed as a reciprocal) so the
// result is bit-identical to the pre-kernel serial loop.
// Clients fold pairwise like FoldK: the left-to-right add sequence keeps
// the per-element operations exactly those of the one-client-at-a-time
// sweeps while overlapping the two divisions.
func FoldKDual(dst []float64, lo, hi int, zs, ds [][]float64, invP, rho float64) {
	for b := lo; b < hi; b += KernelBlock {
		be := min(b+KernelBlock, hi)
		d := dst[b:be]
		for i := range d {
			d[i] = 0
		}
		k := 0
		for ; k+1 < len(zs); k += 2 {
			z1, z2 := zs[k][b:be], zs[k+1][b:be]
			l1, l2 := ds[k][b:be], ds[k+1][b:be]
			_ = z2[len(d)-1]
			_ = l2[len(d)-1]
			for i := range d {
				d[i] = d[i] + invP*(z1[i]-l1[i]/rho) + invP*(z2[i]-l2[i]/rho)
			}
		}
		for ; k < len(zs); k++ {
			z := zs[k][b:be]
			lam := ds[k][b:be]
			for i := range d {
				d[i] += invP * (z[i] - lam[i]/rho)
			}
		}
	}
}

// DualStepK applies the IIADMM mirror-dual update (Algorithm 1 line 6)
//
//	ds[k][i] += rho·(w[i] − zs[k][i])
//
// for every k over [lo,hi), cache-blocked so the shared w block is read
// once per block instead of once per client sweep.
func DualStepK(ds [][]float64, w []float64, lo, hi int, zs [][]float64, rho float64) {
	for b := lo; b < hi; b += KernelBlock {
		be := min(b+KernelBlock, hi)
		wb := w[b:be]
		for k, zk := range zs {
			z := zk[b:be]
			d := ds[k][b:be]
			for i := range d {
				d[i] += rho * (wb[i] - z[i])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fused fold sources.
//
// A FoldSrc is one cohort update as the fold kernels consume it: either
// an already-dense vector or a still-encoded wire payload (half floats
// or affine-quantized codes) that the kernel decodes on the fly, one
// register value at a time, straight into the accumulator. Fusing the
// inversion into the fold removes the intermediate densified buffer —
// the two-pass path writes and re-reads dim·8 bytes per update that the
// fused path never materializes.

// SrcKind discriminates the representations a FoldSrc can carry.
type SrcKind uint8

// Fold source kinds.
const (
	SrcDense   SrcKind = iota // Dense[i], plain float64
	SrcF16                    // Codes: 2 bytes/coord, little-endian binary16
	SrcQuant8                 // Codes: 1 byte/coord, Offset + Scale·code
	SrcQuant16                // Codes: 2 bytes/coord little-endian, same affine map
)

// FoldSrc is one fold input: a vector in dense or encoded form plus its
// fold coefficient (the FedAvg sample weight, or the staleness-weighted
// alpha of the buffered rule).
type FoldSrc struct {
	Kind   SrcKind
	Dense  []float64 // SrcDense
	Codes  []byte    // SrcF16, SrcQuant8, SrcQuant16
	Scale  float64   // SrcQuant*
	Offset float64   // SrcQuant*
	W      float64   // fold coefficient
}

// At decodes coordinate i of the source — the scalar reference the fused
// kernels inline per kind. It is exported for tests and slow paths, not
// for hot loops.
func (s *FoldSrc) At(i int) float64 {
	switch s.Kind {
	case SrcDense:
		return s.Dense[i]
	case SrcF16:
		return f16.ToFloat64(uint16(s.Codes[2*i]) | uint16(s.Codes[2*i+1])<<8)
	case SrcQuant8:
		return s.Offset + s.Scale*float64(s.Codes[i])
	case SrcQuant16:
		return s.Offset + s.Scale*float64(uint16(s.Codes[2*i])|uint16(s.Codes[2*i+1])<<8)
	default:
		panic(fmt.Sprintf("tensor: unknown fold source kind %d", s.Kind))
	}
}

// foldAccum adds W·src into d (no zeroing), decoding encoded sources on
// the fly. d holds elements [b, b+len(d)) of the accumulator.
func foldAccum(d []float64, s *FoldSrc, b int) {
	w := s.W
	switch s.Kind {
	case SrcDense:
		src := s.Dense[b : b+len(d)]
		for i, v := range src {
			d[i] += w * v
		}
	case SrcF16:
		c := s.Codes[2*b : 2*(b+len(d))]
		for i := range d {
			d[i] += w * f16.ToFloat64(uint16(c[2*i])|uint16(c[2*i+1])<<8)
		}
	case SrcQuant8:
		c := s.Codes[b : b+len(d)]
		off, sc := s.Offset, s.Scale
		for i := range d {
			d[i] += w * (off + sc*float64(c[i]))
		}
	case SrcQuant16:
		c := s.Codes[2*b : 2*(b+len(d))]
		off, sc := s.Offset, s.Scale
		for i := range d {
			d[i] += w * (off + sc*float64(uint16(c[2*i])|uint16(c[2*i+1])<<8))
		}
	}
}

// foldConvex applies d[i] ← (1−a)·d[i] + a·src[i] with on-the-fly decode.
func foldConvex(d []float64, s *FoldSrc, b int) {
	a := s.W
	na := 1 - a
	switch s.Kind {
	case SrcDense:
		src := s.Dense[b : b+len(d)]
		for i, v := range src {
			d[i] = na*d[i] + a*v
		}
	case SrcF16:
		c := s.Codes[2*b : 2*(b+len(d))]
		for i := range d {
			d[i] = na*d[i] + a*f16.ToFloat64(uint16(c[2*i])|uint16(c[2*i+1])<<8)
		}
	case SrcQuant8:
		c := s.Codes[b : b+len(d)]
		off, sc := s.Offset, s.Scale
		for i := range d {
			d[i] = na*d[i] + a*(off+sc*float64(c[i]))
		}
	case SrcQuant16:
		c := s.Codes[2*b : 2*(b+len(d))]
		off, sc := s.Offset, s.Scale
		for i := range d {
			d[i] = na*d[i] + a*(off+sc*float64(uint16(c[2*i])|uint16(c[2*i+1])<<8))
		}
	}
}

// FoldKSrc is FoldK over fused sources: dst[i] = Σ_k srcs[k].W·dec_k(i),
// zero-then-accumulate in source order, cache-blocked, decoding encoded
// payloads on the fly. With all-dense sources it is exactly FoldK.
func FoldKSrc(dst []float64, lo, hi int, srcs []FoldSrc) {
	for b := lo; b < hi; b += KernelBlock {
		be := min(b+KernelBlock, hi)
		d := dst[b:be]
		for i := range d {
			d[i] = 0
		}
		for k := range srcs {
			foldAccum(d, &srcs[k], b)
		}
	}
}

// FoldKScaledSrc is FoldKScaled over fused sources: K sequential convex
// folds dst ← (1−W)·dst + W·dec_k in one cache-blocked pass.
func FoldKScaledSrc(dst []float64, lo, hi int, srcs []FoldSrc) {
	for b := lo; b < hi; b += KernelBlock {
		be := min(b+KernelBlock, hi)
		d := dst[b:be]
		for k := range srcs {
			foldConvex(d, &srcs[k], b)
		}
	}
}
