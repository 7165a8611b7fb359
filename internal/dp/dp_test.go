package dp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// mustLaplace builds a Laplace mechanism or fails the test.
func mustLaplace(t testing.TB, eps Epsilon, r *rng.RNG) *Laplace {
	t.Helper()
	m, err := NewLaplace(eps, r)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustGaussian builds a Gaussian mechanism or fails the test.
func mustGaussian(t testing.TB, eps, delta float64, r *rng.RNG) *Gaussian {
	t.Helper()
	m, err := NewGaussian(eps, delta, r)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLaplaceNoiseScale(t *testing.T) {
	r := rng.New(1)
	mech := mustLaplace(t, 2.0, r)
	const n = 200000
	v := make([]float64, n)
	mech.Perturb(v, 4.0) // scale b = 4/2 = 2, Var = 2b² = 8
	mean, m2 := 0.0, 0.0
	for _, x := range v {
		mean += x
		m2 += x * x
	}
	mean /= n
	variance := m2/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("noise mean %v, want ~0", mean)
	}
	if math.Abs(variance-8) > 0.5 {
		t.Fatalf("noise variance %v, want ~8", variance)
	}
}

func TestLaplaceInfinityIsNoop(t *testing.T) {
	mech := mustLaplace(t, math.Inf(1), rng.New(1))
	v := []float64{1, 2, 3}
	mech.Perturb(v, 10)
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatal("eps=inf must not perturb")
	}
}

func TestLaplaceZeroSensitivityIsNoop(t *testing.T) {
	mech := mustLaplace(t, 1.0, rng.New(1))
	v := []float64{5}
	mech.Perturb(v, 0)
	if v[0] != 5 {
		t.Fatal("zero sensitivity must not perturb")
	}
}

func TestLaplaceTypedErrorOnBadEps(t *testing.T) {
	for _, eps := range []float64{0, -1, math.Inf(-1), math.NaN()} {
		if _, err := NewLaplace(eps, rng.New(1)); !errors.Is(err, ErrEpsilon) {
			t.Fatalf("eps=%v: want ErrEpsilon, got %v", eps, err)
		}
	}
}

// TestLaplaceDPRatioBound empirically checks the ε̄-DP guarantee of
// Definition 1 on a 1-D counting-style query: for outputs of two adjacent
// datasets (sensitivity Δ), the histogram ratio must satisfy
// |ln(P(S)/P'(S))| ≤ ε̄ within sampling error.
func TestLaplaceDPRatioBound(t *testing.T) {
	eps := 1.0
	delta := 1.0 // sensitivity
	r := rng.New(2)
	mech := mustLaplace(t, eps, r)
	const n = 400000
	// A(D) = 0 + noise, A(D') = Δ + noise.
	histA := map[int]int{}
	histB := map[int]int{}
	bin := func(x float64) int { return int(math.Floor(x)) }
	for i := 0; i < n; i++ {
		a := []float64{0}
		mech.Perturb(a, delta)
		histA[bin(a[0])]++
		b := []float64{delta}
		mech.Perturb(b, delta)
		histB[bin(b[0])]++
	}
	for k, ca := range histA {
		cb := histB[k]
		if ca < 2000 || cb < 2000 {
			continue // skip low-mass bins dominated by sampling noise
		}
		ratio := math.Abs(math.Log(float64(ca) / float64(cb)))
		// Bins have width 1 and sensitivity 1, so the log-ratio across a bin
		// can reach eps*(width+delta)/delta = 2eps in the worst case.
		if ratio > 2*eps+0.1 {
			t.Fatalf("bin %d: |log ratio| = %v exceeds bound %v", k, ratio, 2*eps+0.1)
		}
	}
}

func TestGaussianNoiseScale(t *testing.T) {
	r := rng.New(3)
	mech := mustGaussian(t, 1.0, 1e-5, r)
	const n = 100000
	v := make([]float64, n)
	mech.Perturb(v, 1.0)
	sigma := math.Sqrt(2 * math.Log(1.25/1e-5))
	m2 := 0.0
	for _, x := range v {
		m2 += x * x
	}
	variance := m2 / n
	if math.Abs(variance-sigma*sigma) > 0.1*sigma*sigma {
		t.Fatalf("gaussian variance %v, want ~%v", variance, sigma*sigma)
	}
}

func TestGaussianValidation(t *testing.T) {
	if _, err := NewGaussian(0, 0.1, rng.New(1)); !errors.Is(err, ErrEpsilon) {
		t.Fatalf("eps=0: want ErrEpsilon, got %v", err)
	}
	for _, delta := range []float64{0, 1, -0.5, math.NaN()} {
		if _, err := NewGaussian(1, delta, rng.New(1)); !errors.Is(err, ErrDelta) {
			t.Fatalf("delta=%v: want ErrDelta, got %v", delta, err)
		}
	}
}

func TestNoneMechanism(t *testing.T) {
	v := []float64{1, 2}
	var none None
	none.Perturb(v, 100)
	if v[0] != 1 || v[1] != 2 {
		t.Fatal("None must not perturb")
	}
	if none.Name() != "none" {
		t.Fatal("None name")
	}
}

func TestClipL2(t *testing.T) {
	v := []float64{3, 4} // norm 5
	norm := ClipL2(v, 1)
	if norm != 5 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	got := math.Hypot(v[0], v[1])
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("post-clip norm %v, want 1", got)
	}
	// Direction preserved.
	if math.Abs(v[0]/v[1]-0.75) > 1e-12 {
		t.Fatal("clip changed direction")
	}
}

func TestClipL2NoopBelowBound(t *testing.T) {
	v := []float64{0.3, 0.4}
	ClipL2(v, 1)
	if v[0] != 0.3 || v[1] != 0.4 {
		t.Fatal("clip modified vector below the bound")
	}
}

// Property: after ClipL2(v, c) the norm never exceeds c (within FP error).
func TestClipL2Property(t *testing.T) {
	f := func(raw []float64, rawC float64) bool {
		if len(raw) == 0 {
			return true
		}
		c := math.Abs(rawC)
		if c < 1e-9 || math.IsNaN(c) || math.IsInf(c, 0) {
			c = 1
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = x
		}
		ClipL2(v, c)
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s) <= c*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIADMMSensitivity(t *testing.T) {
	s := IADMMSensitivity{Clip: 1.5, Rho: 2, Zeta: 1}
	if got := s.Sensitivity(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("IADMM sensitivity %v, want 2*1.5/3 = 1", got)
	}
}

func TestFedAvgSensitivity(t *testing.T) {
	s := FedAvgSensitivity{Clip: 2, LR: 0.1}
	if got := s.Sensitivity(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("FedAvg sensitivity %v, want 0.4", got)
	}
}

func TestSensitivityShrinksWithStrongerRegularization(t *testing.T) {
	// Larger ρ+ζ ⇒ smaller sensitivity ⇒ less noise for the same ε̄. This is
	// the mechanism behind IIADMM's robustness at small ε̄ in Figure 2.
	weak := IADMMSensitivity{Clip: 1, Rho: 1, Zeta: 0.5}
	strong := IADMMSensitivity{Clip: 1, Rho: 10, Zeta: 5}
	if strong.Sensitivity() >= weak.Sensitivity() {
		t.Fatal("sensitivity must decrease as ρ+ζ grows")
	}
}

func TestMechanismNames(t *testing.T) {
	if mustLaplace(t, 3, rng.New(1)).Name() != "laplace(eps=3)" {
		t.Fatal("laplace name")
	}
	if mustLaplace(t, math.Inf(1), rng.New(1)).Name() != "laplace(eps=inf)" {
		t.Fatal("laplace inf name")
	}
	g := mustGaussian(t, 1, 1e-5, rng.New(1))
	if g.Name() != "gaussian(eps=1,delta=1e-05)" {
		t.Fatalf("gaussian name %q", g.Name())
	}
}

func BenchmarkLaplacePerturb(b *testing.B) {
	mech := mustLaplace(b, 1, rng.New(1))
	v := make([]float64, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech.Perturb(v, 1)
	}
}

func TestObjectiveNoiseScaleAndFreshness(t *testing.T) {
	mech := mustLaplace(t, 2, rng.New(9))
	a := ObjectiveNoise(mech, 1000, 4) // Laplace scale 2, Var 8
	b := ObjectiveNoise(mech, 1000, 4)
	var va float64
	same := 0
	for i := range a {
		va += a[i] * a[i]
		if a[i] == b[i] {
			same++
		}
	}
	va /= float64(len(a))
	if va < 4 || va > 14 {
		t.Fatalf("objective noise variance %v, want ~8", va)
	}
	if same > 2 {
		t.Fatalf("consecutive draws shared %d coordinates; noise must be fresh per round", same)
	}
	// Non-private mode: zero vector.
	z := ObjectiveNoise(mustLaplace(t, math.Inf(1), rng.New(1)), 10, 4)
	for _, v := range z {
		if v != 0 {
			t.Fatal("objective noise must vanish at eps=inf")
		}
	}
}
