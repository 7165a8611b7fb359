package pipeline

import (
	"errors"
	"math"
	"testing"

	"repro/internal/f16"
	"repro/internal/rng"
	"repro/internal/wire"
)

func mustParse(t *testing.T, spec string) Specs {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return s
}

func mustBuild(t *testing.T, spec string, r *rng.RNG) *Pipeline {
	t.Helper()
	p, err := mustParse(t, spec).Build(r)
	if err != nil {
		t.Fatalf("Build(%q): %v", spec, err)
	}
	return p
}

func TestParseValidSpecs(t *testing.T) {
	for spec, wantStages := range map[string]int{
		"":                            0,
		"clip:1":                      1,
		"clip:1.0,laplace:0.5":        2,
		"clip:2,gaussian:1:1e-6":      2,
		"clip:1,laplace:0.5,topk:0.1": 3,
		"quantize:8":                  1,
		"quantize":                    1,
		"f16":                         1,
		" clip:1 , topk:0.5 ":         2,
	} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if len(s) != wantStages {
			t.Fatalf("Parse(%q): %d stages, want %d", spec, len(s), wantStages)
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"unknown:1",            // unknown stage
		"clip",                 // missing required arg
		"clip:x",               // non-numeric arg
		"clip:0",               // non-positive bound
		"clip:-1",              // negative bound
		"laplace:0.5",          // noise without clip
		"topk:0.1,laplace:0.5", // noise after compression
		"clip:1,clip:2",        // duplicate clip
		"topk:0.1,f16",         // two compression stages
		"topk:0",               // fraction out of range
		"topk:1.5",             // fraction out of range
		"quantize:0",           // bits out of range
		"quantize:17",          // bits out of range
		"quantize:3.5",         // non-integer bits
		"gaussian:1:2",         // delta out of range
		"clip:1,,topk:0.1",     // empty stage
		"f16:2",                // arity violation
	} {
		if _, err := Parse(spec); !errors.Is(err, ErrSpec) {
			t.Fatalf("Parse(%q): want ErrSpec, got %v", spec, err)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	in := "clip:1.5,laplace:0.5,topk:0.1"
	s := mustParse(t, in)
	if got := s.String(); got != in {
		t.Fatalf("Specs.String() = %q, want %q", got, in)
	}
	p := mustBuild(t, in, rng.New(1))
	if got := p.String(); got != in {
		t.Fatalf("Pipeline.String() = %q, want %q", got, in)
	}
}

func TestClipBoundAndEpsilon(t *testing.T) {
	p := mustBuild(t, "clip:2.5,laplace:0.5", rng.New(1))
	if p.ClipBound() != 2.5 {
		t.Fatalf("ClipBound %v, want 2.5", p.ClipBound())
	}
	if p.Epsilon() != 0.5 {
		t.Fatalf("Epsilon %v, want 0.5", p.Epsilon())
	}
	empty := mustBuild(t, "", nil)
	if !empty.Empty() || empty.ClipBound() != 0 || !math.IsInf(empty.Epsilon(), 1) {
		t.Fatal("empty pipeline must report no clip and +Inf epsilon")
	}
	two := mustBuild(t, "clip:1,laplace:0.5,gaussian:0.25", rng.New(2))
	if two.Epsilon() != 0.75 {
		t.Fatalf("sequential composition epsilon %v, want 0.75", two.Epsilon())
	}
}

func TestCompresses(t *testing.T) {
	for spec, want := range map[string]bool{
		"": false, "clip:1": false, "clip:1,laplace:5": false, "clip:1,gaussian:1": false,
		"topk:0.1": true, "clip:1,quantize:8": true, "clip:1,laplace:5,f16": true,
	} {
		if got := mustBuild(t, spec, nil).Compresses(); got != want {
			t.Errorf("%q: Compresses() = %v, want %v", spec, got, want)
		}
	}
}

func TestGradHookClips(t *testing.T) {
	p := mustBuild(t, "clip:1", nil)
	g := []float64{3, 4} // norm 5
	p.GradHook(g)
	if n := math.Hypot(g[0], g[1]); math.Abs(n-1) > 1e-12 {
		t.Fatalf("post-hook norm %v, want 1", n)
	}
}

func TestEmptyPipelineIsIdentity(t *testing.T) {
	p := mustBuild(t, "", nil)
	v := []float64{1, -2, 3}
	u := NewDense(append([]float64(nil), v...))
	if err := p.Apply(u, 1); err != nil {
		t.Fatal(err)
	}
	if u.Enc != wire.EncDense {
		t.Fatalf("identity changed encoding to %v", u.Enc)
	}
	for i := range v {
		if u.Dense[i] != v[i] {
			t.Fatal("identity modified values")
		}
	}
	if err := p.Invert(u); err != nil {
		t.Fatal(err)
	}
}

func TestTopKRoundTrip(t *testing.T) {
	p := mustBuild(t, "topk:0.4", nil)
	v := []float64{0.1, -5, 0.2, 3, -0.05, 0.5, 0, 2, -1, 0.3}
	u := NewDense(append([]float64(nil), v...))
	if err := p.Apply(u, 0); err != nil {
		t.Fatal(err)
	}
	if u.Enc != wire.EncSparse {
		t.Fatalf("encoding %v, want sparse", u.Enc)
	}
	if len(u.Values) != 4 { // ceil(0.4·10)
		t.Fatalf("kept %d values, want 4", len(u.Values))
	}
	if err := p.Invert(u); err != nil {
		t.Fatal(err)
	}
	// The four largest magnitudes survive (−5, 3, 2, −1); the rest are 0.
	want := []float64{0, -5, 0, 3, 0, 0, 0, 2, -1, 0}
	for i := range want {
		if u.Dense[i] != want[i] {
			t.Fatalf("coordinate %d: %v, want %v", i, u.Dense[i], want[i])
		}
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	p := mustBuild(t, "topk:0.5", nil)
	v := []float64{1, -1, 1, -1}
	u := NewDense(append([]float64(nil), v...))
	if err := p.Apply(u, 0); err != nil {
		t.Fatal(err)
	}
	if u.Indices[0] != 0 || u.Indices[1] != 1 {
		t.Fatalf("tie-break kept indices %v, want the lowest [0 1]", u.Indices)
	}
}

func TestQuantizeRoundTripAndUnbiasedness(t *testing.T) {
	r := rng.New(7)
	p := mustBuild(t, "quantize:8", r)
	const n = 4000
	src := rng.New(8)
	v := make([]float64, n)
	for i := range v {
		v[i] = src.Normal(0, 1)
	}
	u := NewDense(append([]float64(nil), v...))
	if err := p.Apply(u, 0); err != nil {
		t.Fatal(err)
	}
	if u.Enc != wire.EncQuant || u.Bits != 8 || len(u.Codes) != n {
		t.Fatalf("quant payload wrong: enc=%v bits=%d codes=%d", u.Enc, u.Bits, len(u.Codes))
	}
	if err := p.Invert(u); err != nil {
		t.Fatal(err)
	}
	// Per-coordinate error is bounded by one quantization step, and
	// stochastic rounding keeps the mean error near zero.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	step := (hi - lo) / 255
	meanErr := 0.0
	for i := range v {
		e := u.Dense[i] - v[i]
		if math.Abs(e) > step+1e-12 {
			t.Fatalf("coordinate %d error %v exceeds one step %v", i, e, step)
		}
		meanErr += e
	}
	meanErr /= n
	if math.Abs(meanErr) > step/4 {
		t.Fatalf("mean quantization error %v not near zero (step %v); stochastic rounding should be unbiased", meanErr, step)
	}
}

func TestQuantizeSixteenBitUsesTwoByteCodes(t *testing.T) {
	p := mustBuild(t, "quantize:16", rng.New(3))
	v := []float64{0, 0.25, 0.5, 0.75, 1}
	u := NewDense(append([]float64(nil), v...))
	if err := p.Apply(u, 0); err != nil {
		t.Fatal(err)
	}
	if len(u.Codes) != 2*len(v) {
		t.Fatalf("16-bit codes use %d bytes, want %d", len(u.Codes), 2*len(v))
	}
	if err := p.Invert(u); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if math.Abs(u.Dense[i]-v[i]) > 1.0/65535+1e-9 {
			t.Fatalf("16-bit round trip error at %d: %v vs %v", i, u.Dense[i], v[i])
		}
	}
}

func TestQuantizeConstantVector(t *testing.T) {
	p := mustBuild(t, "quantize:8", rng.New(3))
	v := []float64{2.5, 2.5, 2.5}
	u := NewDense(append([]float64(nil), v...))
	if err := p.Apply(u, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Invert(u); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if u.Dense[i] != 2.5 {
			t.Fatalf("constant vector reconstructed to %v", u.Dense[i])
		}
	}
}

func TestFloat16RoundTrip(t *testing.T) {
	p := mustBuild(t, "f16", nil)
	v := []float64{0, 1, -1, 0.5, 65504, -65504, 1e-8, math.Pi}
	u := NewDense(append([]float64(nil), v...))
	if err := p.Apply(u, 0); err != nil {
		t.Fatal(err)
	}
	if u.Enc != wire.EncFloat16 || len(u.Codes) != 2*len(v) {
		t.Fatalf("f16 payload wrong: enc=%v codes=%d", u.Enc, len(u.Codes))
	}
	if err := p.Invert(u); err != nil {
		t.Fatal(err)
	}
	// Exactly representable values survive bit for bit; the rest within
	// half-precision relative error (2^-11).
	for i, want := range []float64{0, 1, -1, 0.5, 65504, -65504} {
		if u.Dense[i] != want {
			t.Fatalf("exact value %v reconstructed as %v", want, u.Dense[i])
		}
	}
	if rel := math.Abs(u.Dense[7]-math.Pi) / math.Pi; rel > math.Pow(2, -11) {
		t.Fatalf("pi relative error %v exceeds 2^-11", rel)
	}
}

func TestFloat16Specials(t *testing.T) {
	cases := []struct{ in, out float64 }{
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), math.Inf(-1)},
		{1e300, math.Inf(1)}, // overflow saturates
		{1e-300, 0},          // underflow flushes
		{6.0e-8, 6.0e-8},     // subnormal half survives approximately
	}
	for _, c := range cases {
		got := f16.ToFloat64(f16.FromFloat64(c.in))
		if math.IsInf(c.out, 0) || c.out == 0 {
			if got != c.out {
				t.Fatalf("f16(%v) -> %v, want %v", c.in, got, c.out)
			}
			continue
		}
		if math.Abs(got-c.out)/math.Abs(c.out) > 0.01 {
			t.Fatalf("f16(%v) -> %v, want ≈%v", c.in, got, c.out)
		}
	}
	if !math.IsNaN(f16.ToFloat64(f16.FromFloat64(math.NaN()))) {
		t.Fatal("NaN must survive the f16 round trip")
	}
}

func TestNoisePerturbsAndObjectiveModeSkipsRelease(t *testing.T) {
	p := mustBuild(t, "clip:1,laplace:0.5", rng.New(5))
	v := []float64{1, 2, 3, 4}
	u := NewDense(append([]float64(nil), v...))
	if err := p.Apply(u, 1.0); err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range v {
		if u.Dense[i] != v[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("output perturbation left the release untouched")
	}

	// Objective mode: the release is untouched, the round noise is drawn.
	po := mustBuild(t, "clip:1,laplace:0.5", rng.New(5))
	po.SetObjective(true)
	po.BeginRound(4, 1.0)
	u2 := NewDense(append([]float64(nil), v...))
	if err := po.Apply(u2, 1.0); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if u2.Dense[i] != v[i] {
			t.Fatal("objective mode must not perturb the release")
		}
	}
	g := make([]float64, 4)
	po.GradHook(g)
	nonzero := 0
	for _, x := range g {
		if x != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("objective mode must add round noise to gradients")
	}
}

func TestServerBuildInvertsButRefusesApply(t *testing.T) {
	// Build(nil) is the server-side form: randomized stages refuse Apply.
	srv := mustBuild(t, "clip:1,laplace:0.5,topk:0.5", nil)
	u := NewDense([]float64{1, 2, 3, 4})
	if err := srv.Apply(u, 1.0); !errors.Is(err, ErrNeedRNG) {
		t.Fatalf("server-side Apply: want ErrNeedRNG, got %v", err)
	}

	cli := mustBuild(t, "clip:1,laplace:0.5,topk:0.5", rng.New(9))
	u2 := NewDense([]float64{1, 2, 3, 4})
	if err := cli.Apply(u2, 1.0); err != nil {
		t.Fatal(err)
	}
	if u2.Enc != wire.EncSparse {
		t.Fatalf("client stack produced %v, want sparse", u2.Enc)
	}
	if err := srv.Invert(u2); err != nil {
		t.Fatal(err)
	}
	if u2.Enc != wire.EncDense || len(u2.Dense) != 4 {
		t.Fatal("server inversion did not reconstruct a dense vector")
	}
}

func TestInvertRejectsUnconfiguredEncoding(t *testing.T) {
	// A dense-only stack must reject a sparse payload (and vice versa): a
	// client cannot smuggle an encoding the server did not configure.
	plain := mustBuild(t, "clip:1", nil)
	sparse := &Update{Enc: wire.EncSparse, Dim: 3, Indices: []uint32{1}, Values: []float64{2}}
	if err := plain.Invert(sparse); !errors.Is(err, ErrSpec) {
		t.Fatalf("want ErrSpec for unconfigured sparse payload, got %v", err)
	}
	topk := mustBuild(t, "topk:0.5", nil)
	dense := NewDense([]float64{1, 2})
	if err := topk.Invert(dense); !errors.Is(err, ErrSpec) {
		t.Fatalf("want ErrSpec for dense payload on a topk stack, got %v", err)
	}
	quant := mustBuild(t, "quantize:8", nil)
	if err := quant.Invert(&Update{Enc: wire.EncSparse, Dim: 3, Indices: []uint32{0}, Values: []float64{1}}); !errors.Is(err, ErrSpec) {
		t.Fatalf("want ErrSpec for sparse payload on a quant stack, got %v", err)
	}
}

func TestBuildSplitsRNGPerRandomizedStage(t *testing.T) {
	// Two identical specs built from identically seeded RNGs must produce
	// identical noise streams (reproducibility), and the build must not
	// consume splits for deterministic stages.
	r1, r2 := rng.New(42), rng.New(42)
	p1 := mustBuild(t, "clip:1,laplace:1", r1)
	p2 := mustBuild(t, "clip:1,laplace:1", r2)
	u1 := NewDense([]float64{0, 0, 0})
	u2 := NewDense([]float64{0, 0, 0})
	if err := p1.Apply(u1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p2.Apply(u2, 1); err != nil {
		t.Fatal(err)
	}
	for i := range u1.Dense {
		if u1.Dense[i] != u2.Dense[i] {
			t.Fatal("identically seeded pipelines diverged")
		}
	}
	// Deterministic stacks leave the RNG untouched.
	r3 := rng.New(7)
	before := *r3
	mustBuild(t, "clip:1,topk:0.1", r3)
	if *r3 != before {
		t.Fatal("building a deterministic stack consumed RNG state")
	}
}

func TestFloat16RejectsUnrepresentableValues(t *testing.T) {
	p := mustBuild(t, "f16", nil)
	for _, bad := range [][]float64{
		{1, math.NaN()},
		{70000}, // above the largest finite half (65504)
		{-70000},
	} {
		u := NewDense(append([]float64(nil), bad...))
		if err := p.Apply(u, 0); !errors.Is(err, ErrSpec) {
			t.Fatalf("f16 accepted unrepresentable %v (err %v)", bad, err)
		}
	}
	// Inf is above maxFloat16 in magnitude and must be rejected too.
	u := NewDense([]float64{math.Inf(1)})
	if err := p.Apply(u, 0); !errors.Is(err, ErrSpec) {
		t.Fatalf("f16 accepted Inf (err %v)", err)
	}
}
