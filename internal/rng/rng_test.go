package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	// The state must not be all zeros and must produce varied output.
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("zero seed produced only %d distinct values in 64 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children must differ from each other.
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children matched on %d/100 draws", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split streams diverged at %d", i)
		}
	}
}

func TestSplitN(t *testing.T) {
	kids := New(3).SplitN(5)
	if len(kids) != 5 {
		t.Fatalf("want 5 children, got %d", len(kids))
	}
	v := map[uint64]bool{}
	for _, k := range kids {
		v[k.Uint64()] = true
	}
	if len(v) != 5 {
		t.Fatalf("children not distinct: %d unique first draws", len(v))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(23)
	const n = 200000
	mean, m2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(2, 3)
		mean += x
		m2 += x * x
	}
	mean /= n
	variance := m2/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("normal mean %v, want ~2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Fatalf("normal variance %v, want ~9", variance)
	}
}

func TestLaplaceMoments(t *testing.T) {
	r := New(29)
	const n = 300000
	b := 1.5
	mean, m2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Laplace(0, b)
		mean += x
		m2 += x * x
	}
	mean /= n
	variance := m2/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("laplace mean %v, want ~0", mean)
	}
	// Var(Laplace(0,b)) = 2 b^2 = 4.5
	if math.Abs(variance-2*b*b) > 0.25 {
		t.Fatalf("laplace variance %v, want ~%v", variance, 2*b*b)
	}
}

func TestLaplaceMedianAbsoluteDeviation(t *testing.T) {
	// P(|X| <= b ln 2) = 1/2 for Laplace(0, b).
	r := New(31)
	b := 2.0
	const n = 100000
	inside := 0
	thr := b * math.Ln2
	for i := 0; i < n; i++ {
		if math.Abs(r.Laplace(0, b)) <= thr {
			inside++
		}
	}
	frac := float64(inside) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("P(|X|<=b ln2) = %v, want ~0.5", frac)
	}
}

func TestLaplacePanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Laplace with scale 0 did not panic")
		}
	}()
	New(1).Laplace(0, 0)
}

func TestExponentialMean(t *testing.T) {
	r := New(37)
	const n = 200000
	rate := 2.5
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Exponential(rate)
		if x < 0 {
			t.Fatalf("exponential produced negative %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.02 {
		t.Fatalf("exponential mean %v, want ~%v", mean, 1/rate)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(41)
	for i := 0; i < 10000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("lognormal produced non-positive value")
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	// Median of LogNormal(mu, sigma) is exp(mu).
	r := New(43)
	mu := 0.7
	const n = 100000
	below := 0
	med := math.Exp(mu)
	for i := 0; i < n; i++ {
		if r.LogNormal(mu, 0.9) < med {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func TestFillers(t *testing.T) {
	r := New(47)
	n := 512
	u := make([]float64, n)
	r.FillUniform(u, -1, 1)
	for _, v := range u {
		if v < -1 || v >= 1 {
			t.Fatalf("FillUniform out of range: %v", v)
		}
	}
	g := make([]float64, n)
	r.FillNormal(g, 0, 1)
	l := make([]float64, n)
	r.FillLaplace(l, 0, 1)
	varied := 0
	for i := 1; i < n; i++ {
		if g[i] != g[0] || l[i] != l[0] {
			varied++
		}
	}
	if varied == 0 {
		t.Fatal("fillers produced constant output")
	}
}

// Property: shuffling preserves the multiset of elements.
func TestShufflePreservesElements(t *testing.T) {
	f := func(seed uint64, raw []int8) bool {
		r := New(seed)
		p := make([]int, len(raw))
		for i, v := range raw {
			p[i] = int(v)
		}
		counts := map[int]int{}
		for _, v := range p {
			counts[v]++
		}
		r.Shuffle(p)
		for _, v := range p {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkLaplace(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Laplace(0, 1)
	}
	_ = sink
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Normal(0, 1)
	}
	_ = sink
}

// TestBlockSamplersLeaveScalarState: a block sampler over n elements draws
// the variates n scalar calls draw, bit for bit, and leaves the generator
// where they leave it — the next Uint64 and the next Normal (Box-Muller's
// cached second variate) agree — for even and odd n, starting with and
// without a cached variate, and with block and scalar calls interleaved.
func TestBlockSamplersLeaveScalarState(t *testing.T) {
	type sampler struct {
		name   string
		block  func(r *RNG, dst []float64)
		scalar func(r *RNG, dst []float64)
	}
	samplers := []sampler{
		{"AddLaplace",
			func(r *RNG, dst []float64) { r.AddLaplace(dst, 0, 0.004) },
			func(r *RNG, dst []float64) {
				for i := range dst {
					dst[i] += r.Laplace(0, 0.004)
				}
			}},
		{"FillLaplace",
			func(r *RNG, dst []float64) { r.FillLaplace(dst, -1.5, 2) },
			func(r *RNG, dst []float64) {
				for i := range dst {
					dst[i] = r.Laplace(-1.5, 2)
				}
			}},
		{"AddNormal",
			func(r *RNG, dst []float64) { r.AddNormal(dst, 0, 0.3) },
			func(r *RNG, dst []float64) {
				for i := range dst {
					dst[i] += r.Normal(0, 0.3)
				}
			}},
		{"FillUniform",
			func(r *RNG, dst []float64) { r.FillUniform(dst, 0, 1) },
			func(r *RNG, dst []float64) {
				for i := range dst {
					dst[i] = r.Float64()
				}
			}},
		{"FillUniformRange",
			func(r *RNG, dst []float64) { r.FillUniform(dst, -0.3, 7) },
			func(r *RNG, dst []float64) {
				lo, hi := -0.3, 7.0
				span := hi - lo
				for i := range dst {
					dst[i] = lo + span*r.Float64()
				}
			}},
		{"FillNormal",
			func(r *RNG, dst []float64) { r.FillNormal(dst, 2, 0.5) },
			func(r *RNG, dst []float64) {
				for i := range dst {
					dst[i] = r.Normal(2, 0.5)
				}
			}},
	}
	for _, s := range samplers {
		for _, n := range []int{0, 1, 2, 7, 8, 1001} {
			for _, primed := range []bool{false, true} {
				a, b := New(99), New(99)
				if primed { // leave a cached second variate behind
					a.Normal(0, 1)
					b.Normal(0, 1)
				}
				got, want := make([]float64, n), make([]float64, n)
				for i := range got {
					got[i] = float64(i) - 3
					want[i] = got[i]
				}
				if n > 0 {
					got[n-1], want[n-1] = math.Copysign(0, -1), math.Copysign(0, -1)
				}
				// Two blocks back to back: the second starts from whatever
				// the first left (a cached variate after an odd n).
				s.block(a, got[:n/3])
				s.block(a, got[n/3:])
				s.scalar(b, want)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d primed=%v: element %d = %v, scalar draws give %v", s.name, n, primed, i, got[i], want[i])
					}
				}
				if g, w := a.Normal(0, 1), b.Normal(0, 1); g != w {
					t.Fatalf("%s n=%d primed=%v: next Normal %v, after scalar draws %v", s.name, n, primed, g, w)
				}
				if g, w := a.Uint64(), b.Uint64(); g != w {
					t.Fatalf("%s n=%d primed=%v: next Uint64 %#x, after scalar draws %#x", s.name, n, primed, g, w)
				}
			}
		}
	}
}

// laplaceDraws are uniform draws at and around the transform's special
// points: the endpoint 0, either side of the sign flip at 1/2, the largest
// draw, and two in between.
var laplaceDraws = []float64{0, 0x1p-53, 0.25, 0.5 - 0x1p-53, 0.5, 0.5 + 0x1p-53, 0.75, 1 - 0x1p-53}

// TestLaplaceEndpointMatchesScalar: every draw, the one that lands on the
// endpoint (u = −1/2) included, takes the same value through the block
// sampler's merged expression as through Laplace's branches.
func TestLaplaceEndpointMatchesScalar(t *testing.T) {
	for _, loc := range []float64{0, -1.5} {
		got := make([]float64, len(laplaceDraws))
		laplaceBlock(got, laplaceDraws, loc, 3, false)
		for i, f := range laplaceDraws {
			if want := laplaceAt(f, loc, 3); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("draw %v, loc %v: merged expression %v, branches %v", f, loc, got[i], want)
			}
		}
	}
}

// TestLaplaceEndpointIsFinite: the draw 0 (probability 2⁻⁵³ per variate)
// gives the variate loc, not the +Inf of log 0, through the scalar
// transform and through both block forms — so an output-perturbed model
// never carries an infinite coordinate, and every draw stays finite.
func TestLaplaceEndpointIsFinite(t *testing.T) {
	const loc, scale = 0.25, 5.0
	if got := laplaceAt(0, loc, scale); got != loc {
		t.Fatalf("Laplace at the draw 0 = %v, want loc %v", got, loc)
	}
	fill := make([]float64, len(laplaceDraws))
	laplaceBlock(fill, laplaceDraws, loc, scale, false)
	add := make([]float64, len(laplaceDraws))
	for i := range add {
		add[i] = 1
	}
	laplaceBlock(add, laplaceDraws, loc, scale, true)
	if fill[0] != loc || add[0] != 1+loc {
		t.Fatalf("block forms at the draw 0: fill %v, add to 1 %v; want %v and %v", fill[0], add[0], loc, 1+loc)
	}
	for i, f := range laplaceDraws {
		if s := laplaceAt(f, loc, scale); math.IsInf(s, 0) || math.IsNaN(s) || math.IsInf(fill[i], 0) || math.IsNaN(fill[i]) ||
			math.IsInf(add[i], 0) || math.IsNaN(add[i]) {
			t.Fatalf("draw %v: scalar %v, fill %v, add %v — not finite", f, s, fill[i], add[i])
		}
	}
}

func benchLaplace(b *testing.B, add func(r *RNG, dst []float64)) {
	const dim = 1017610
	dst := make([]float64, dim)
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add(r, dst)
	}
	b.ReportMetric(float64(dim)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
}

// BenchmarkAddLaplace: the output-perturbation loop over the wide_*
// workloads' model, next to the scalar loop it replaced.
func BenchmarkAddLaplace(b *testing.B) {
	b.Run("block", func(b *testing.B) {
		benchLaplace(b, func(r *RNG, dst []float64) { r.AddLaplace(dst, 0, 0.004) })
	})
	b.Run("ref", func(b *testing.B) {
		benchLaplace(b, func(r *RNG, dst []float64) {
			for i := range dst {
				dst[i] += r.Laplace(0, 0.004)
			}
		})
	})
}
