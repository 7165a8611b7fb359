package dataset

import (
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func tinyDataset(n, classes int) *InMemory {
	images := tensor.New(n, 1, 4, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % classes
		images.Slice(i).Fill(float64(i))
	}
	return NewInMemory(images, labels, classes)
}

func TestInMemoryBasics(t *testing.T) {
	d := tinyDataset(10, 3)
	if d.Len() != 10 || d.Classes() != 3 {
		t.Fatalf("Len/Classes wrong: %d %d", d.Len(), d.Classes())
	}
	x, y := d.Sample(7)
	if y != 1 {
		t.Fatalf("label = %d, want 1", y)
	}
	if x.At(0, 0, 0) != 7 {
		t.Fatalf("sample content wrong: %v", x.At(0, 0, 0))
	}
	if got := d.Shape(); got[0] != 1 || got[1] != 4 || got[2] != 4 {
		t.Fatalf("Shape = %v", got)
	}
}

func TestNewInMemoryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label count mismatch")
		}
	}()
	NewInMemory(tensor.New(3, 1, 2, 2), []int{0, 1}, 2)
}

func TestSubset(t *testing.T) {
	d := tinyDataset(10, 2)
	s := NewSubset(d, []int{9, 0, 5})
	if s.Len() != 3 {
		t.Fatalf("subset Len = %d", s.Len())
	}
	x, _ := s.Sample(0)
	if x.At(0, 0, 0) != 9 {
		t.Fatal("subset does not map indices")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad index")
		}
	}()
	NewSubset(d, []int{10})
}

func TestCollate(t *testing.T) {
	d := tinyDataset(6, 2)
	b := Collate(d, []int{1, 3, 5})
	if b.X.Dim(0) != 3 || b.X.Dim(2) != 4 {
		t.Fatalf("batch shape %v", b.X.Shape())
	}
	if b.Labels[0] != 1 || b.Labels[1] != 1 || b.Labels[2] != 1 {
		t.Fatalf("batch labels %v", b.Labels)
	}
	if b.X.Slice(1).At(0, 0, 0) != 3 {
		t.Fatal("collate copied wrong sample")
	}
}

func TestLoaderCoversEpochExactlyOnce(t *testing.T) {
	d := tinyDataset(10, 2)
	l := NewLoader(d, 3, true, rng.New(1))
	if l.Batches() != 4 {
		t.Fatalf("Batches = %d, want 4", l.Batches())
	}
	seen := map[float64]int{}
	total := 0
	for {
		b, ok := l.Next()
		if !ok {
			break
		}
		if b.X.Dim(0) > 3 {
			t.Fatalf("oversized batch %d", b.X.Dim(0))
		}
		for i := 0; i < b.X.Dim(0); i++ {
			seen[b.X.Slice(i).At(0, 0, 0)]++
			total++
		}
	}
	if total != 10 || len(seen) != 10 {
		t.Fatalf("epoch covered %d samples, %d unique", total, len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("sample %v appeared %d times", v, c)
		}
	}
}

func TestLoaderShuffleChangesOrder(t *testing.T) {
	d := tinyDataset(32, 2)
	l := NewLoader(d, 32, true, rng.New(7))
	b1, _ := l.Next()
	// A batch is valid until the next Next or Reset: keep a copy.
	x1 := b1.X.Clone()
	l.Reset()
	b2, _ := l.Next()
	diff := false
	for i := 0; i < 32; i++ {
		if x1.Slice(i).At(0, 0, 0) != b2.X.Slice(i).At(0, 0, 0) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("two shuffled epochs had identical order (astronomically unlikely)")
	}
}

func TestLoaderNoShuffleIsSequential(t *testing.T) {
	d := tinyDataset(5, 2)
	l := NewLoader(d, 2, false, nil)
	b, _ := l.Next()
	if b.X.Slice(0).At(0, 0, 0) != 0 || b.X.Slice(1).At(0, 0, 0) != 1 {
		t.Fatal("unshuffled loader not sequential")
	}
}

// Property: IID partition preserves every sample exactly once.
func TestPartitionIIDPreservesSamples(t *testing.T) {
	f := func(seed uint64, rawN, rawP uint8) bool {
		n := int(rawN%50) + 10
		p := int(rawP%5) + 1
		d := tinyDataset(n, 2)
		shards := PartitionIID(d, p, rng.New(seed))
		if len(shards) != p {
			return false
		}
		seen := map[float64]int{}
		for _, s := range shards {
			for i := 0; i < s.Len(); i++ {
				x, _ := s.Sample(i)
				seen[x.At(0, 0, 0)]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionIIDBalanced(t *testing.T) {
	d := tinyDataset(103, 2)
	shards := PartitionIID(d, 4, rng.New(3))
	for _, s := range shards {
		if s.Len() < 25 || s.Len() > 26 {
			t.Fatalf("unbalanced shard of size %d", s.Len())
		}
	}
}

func TestPartitionLabelSkewPreservesSamples(t *testing.T) {
	d := tinyDataset(100, 10)
	shards := PartitionLabelSkew(d, 5, 2, rng.New(4))
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != 100 {
		t.Fatalf("label-skew lost/duplicated samples: %d", total)
	}
}

func TestPartitionLabelSkewLimitsClasses(t *testing.T) {
	d := tinyDataset(200, 10)
	shards := PartitionLabelSkew(d, 5, 2, rng.New(5))
	for ci, s := range shards {
		classes := map[int]bool{}
		for i := 0; i < s.Len(); i++ {
			_, y := s.Sample(i)
			classes[y] = true
		}
		if len(classes) > 2 {
			t.Fatalf("client %d holds %d classes, want <= 2", ci, len(classes))
		}
	}
}

func TestSampleFraction(t *testing.T) {
	d := tinyDataset(100, 2)
	s := SampleFraction(d, 0.05, rng.New(6))
	if s.Len() != 5 {
		t.Fatalf("5%% of 100 = %d", s.Len())
	}
}

func TestMNISTGeometry(t *testing.T) {
	train, test := MNIST(SynthConfig{Train: 50, Test: 20})
	if train.Len() != 50 || test.Len() != 20 {
		t.Fatalf("sizes %d/%d", train.Len(), test.Len())
	}
	sh := train.Shape()
	if sh[0] != 1 || sh[1] != 28 || sh[2] != 28 {
		t.Fatalf("MNIST shape %v", sh)
	}
	if train.Classes() != 10 {
		t.Fatalf("MNIST classes %d", train.Classes())
	}
}

func TestCIFAR10Geometry(t *testing.T) {
	train, _ := CIFAR10(SynthConfig{Train: 10, Test: 5})
	sh := train.Shape()
	if sh[0] != 3 || sh[1] != 32 || sh[2] != 32 {
		t.Fatalf("CIFAR shape %v", sh)
	}
	if train.Classes() != 10 {
		t.Fatalf("CIFAR classes %d", train.Classes())
	}
}

func TestCoronaHackGeometry(t *testing.T) {
	train, _ := CoronaHack(SynthConfig{Train: 10, Test: 5})
	sh := train.Shape()
	if sh[0] != 1 || sh[1] != 64 || sh[2] != 64 {
		t.Fatalf("CoronaHack shape %v", sh)
	}
	if train.Classes() != 3 {
		t.Fatalf("CoronaHack classes %d", train.Classes())
	}
}

func TestFEMNISTFederatedGeometry(t *testing.T) {
	fed := FEMNIST(FEMNISTConfig{Writers: 11, SamplesPerWriter: 6, SynthConfig: SynthConfig{Test: 30}})
	if fed.NumClients() != 11 {
		t.Fatalf("writers %d", fed.NumClients())
	}
	if fed.TotalTrain() != 66 {
		t.Fatalf("total train %d", fed.TotalTrain())
	}
	if fed.Test.Len() != 30 {
		t.Fatalf("test %d", fed.Test.Len())
	}
	if fed.Clients[0].Classes() != 62 {
		t.Fatalf("classes %d", fed.Clients[0].Classes())
	}
}

func TestFEMNISTIsNonIID(t *testing.T) {
	fed := FEMNIST(FEMNISTConfig{Writers: 20, SamplesPerWriter: 20})
	// Each writer uses a 12-class band of the 62 classes; label supports of
	// two distant writers should differ.
	support := func(d Dataset) map[int]bool {
		s := map[int]bool{}
		for i := 0; i < d.Len(); i++ {
			_, y := d.Sample(i)
			s[y] = true
		}
		return s
	}
	s0 := support(fed.Clients[0])
	if len(s0) > 12 {
		t.Fatalf("writer 0 has %d classes, want <= 12", len(s0))
	}
	distinct := false
	for c := 1; c < fed.NumClients(); c++ {
		sc := support(fed.Clients[c])
		same := len(sc) == len(s0)
		if same {
			for k := range sc {
				if !s0[k] {
					same = false
					break
				}
			}
		}
		if !same {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("all writers share an identical label support; partition is not non-IID")
	}
}

func TestSyntheticReproducibility(t *testing.T) {
	a, _ := MNIST(SynthConfig{Train: 20, Test: 5, Seed: 42})
	b, _ := MNIST(SynthConfig{Train: 20, Test: 5, Seed: 42})
	for i := 0; i < 20; i++ {
		xa, ya := a.Sample(i)
		xb, yb := b.Sample(i)
		if ya != yb || !xa.EqualWithin(xb, 0) {
			t.Fatalf("same seed produced different corpus at sample %d", i)
		}
	}
	c, _ := MNIST(SynthConfig{Train: 20, Test: 5, Seed: 43})
	xa, _ := a.Sample(0)
	xc, _ := c.Sample(0)
	if xa.EqualWithin(xc, 0) {
		t.Fatal("different seeds produced identical corpora")
	}
}

// TestSyntheticIsLearnable verifies that a small model beats chance by a
// wide margin after brief training — the property Figure 2 depends on.
func TestSyntheticIsLearnable(t *testing.T) {
	train, test := MNIST(SynthConfig{Train: 400, Test: 200, Seed: 9})
	r := rng.New(10)
	m := nn.NewMLP(28*28, []int{32}, 10, r)
	w, g, v := nn.ParamVector(m), nn.GradVector(m), make([]float64, nn.NumParams(m))
	loader := NewLoader(train, 32, true, r.Split())
	for epoch := 0; epoch < 8; epoch++ {
		loader.Reset()
		for {
			b, ok := loader.Next()
			if !ok {
				break
			}
			logits := m.Forward(b.X)
			_, d := nn.CrossEntropy(logits, b.Labels)
			m.Backward(d)
			for i := range w { // momentum SGD: lr 0.1, momentum 0.9
				v[i] = 0.9*v[i] + g[i]
				w[i] -= 0.1 * v[i]
			}
		}
	}
	tb := Collate(test, rng.New(1).Perm(test.Len()))
	acc := nn.Accuracy(m.Forward(tb.X), tb.Labels)
	if acc < 0.5 {
		t.Fatalf("synthetic MNIST not learnable: accuracy %.3f (chance 0.1)", acc)
	}
}

func BenchmarkLoaderEpoch(b *testing.B) {
	train, _ := MNIST(SynthConfig{Train: 256, Test: 1})
	l := NewLoader(train, 64, true, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Reset()
		for {
			if _, ok := l.Next(); !ok {
				break
			}
		}
	}
}

func BenchmarkMNISTGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MNIST(SynthConfig{Train: 100, Test: 10})
	}
}
