// Package dataset provides the training and testing data substrate of the
// APPFL reproduction: a Dataset abstraction mirroring PyTorch's Dataset, a
// shuffling mini-batch Loader mirroring DataLoader, client partitioners
// (IID and non-IID), and procedural generators that stand in for the four
// corpora used in the paper's evaluation — MNIST, CIFAR-10, FEMNIST, and
// CoronaHack. The generators produce class-conditional structured images so
// models genuinely learn; shapes, class counts, and client distributions
// match the originals.
package dataset

import (
	"fmt"
	"slices"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Dataset is a finite collection of labeled tensors, the analog of
// torch.utils.data.Dataset.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// Sample returns the i-th image and its label. The returned tensor must
	// not be mutated.
	Sample(i int) (x *tensor.Tensor, label int)
	// Shape returns the per-sample shape [C, H, W].
	Shape() []int
	// Classes returns the number of distinct labels.
	Classes() int
}

// InMemory is a materialized dataset backed by one contiguous tensor.
type InMemory struct {
	shape   []int // per-sample [C,H,W]
	classes int
	images  *tensor.Tensor // [N, C, H, W]
	labels  []int
}

// NewInMemory wraps pre-built storage. images must be [N, C, H, W] with N
// equal to len(labels).
func NewInMemory(images *tensor.Tensor, labels []int, classes int) *InMemory {
	if images.Rank() != 4 {
		panic(fmt.Sprintf("dataset: images must be [N,C,H,W], got %v", images.Shape()))
	}
	if images.Dim(0) != len(labels) {
		panic(fmt.Sprintf("dataset: %d images but %d labels", images.Dim(0), len(labels)))
	}
	return &InMemory{
		shape:   images.Shape()[1:],
		classes: classes,
		images:  images,
		labels:  labels,
	}
}

// Len returns the number of samples.
func (d *InMemory) Len() int { return len(d.labels) }

// Sample returns the i-th image view and label.
func (d *InMemory) Sample(i int) (*tensor.Tensor, int) {
	return d.images.Slice(i), d.labels[i]
}

// copySample copies sample i's values into dst, without the tensor header
// Sample builds, and returns its label.
func (d *InMemory) copySample(dst []float64, i int) int {
	per := len(dst)
	copy(dst, d.images.Data()[i*per:(i+1)*per])
	return d.labels[i]
}

// view points b at samples [lo,hi) of the dataset's storage, through
// b's kept input header; shape is the batch's [B, C, H, W].
func (d *InMemory) view(b *Batch, lo, hi int, shape []int) {
	per := d.images.Size() / max(d.Len(), 1)
	b.X = tensor.FromSliceInto(b.X, d.images.Data()[lo*per:hi*per], shape...)
	b.Labels = d.labels[lo:hi]
}

// Shape returns the per-sample [C, H, W] shape.
func (d *InMemory) Shape() []int { return d.shape }

// Classes returns the label count.
func (d *InMemory) Classes() int { return d.classes }

// Labels returns the label slice (not a copy; do not mutate).
func (d *InMemory) Labels() []int { return d.labels }

// Subset is a view of a parent dataset restricted to an index list.
type Subset struct {
	Parent  Dataset
	Indices []int
}

// NewSubset builds a subset view; indices must be valid for parent.
func NewSubset(parent Dataset, indices []int) *Subset {
	for _, i := range indices {
		if i < 0 || i >= parent.Len() {
			panic(fmt.Sprintf("dataset: subset index %d out of range [0,%d)", i, parent.Len()))
		}
	}
	return &Subset{Parent: parent, Indices: indices}
}

// Len returns the subset size.
func (s *Subset) Len() int { return len(s.Indices) }

// Sample maps through the index list.
func (s *Subset) Sample(i int) (*tensor.Tensor, int) { return s.Parent.Sample(s.Indices[i]) }

// copySample copies the parent's sample through the index list.
func (s *Subset) copySample(dst []float64, i int) int { return copySample(s.Parent, dst, s.Indices[i]) }

// Shape returns the parent's sample shape.
func (s *Subset) Shape() []int { return s.Parent.Shape() }

// Classes returns the parent's class count.
func (s *Subset) Classes() int { return s.Parent.Classes() }

// Batch is one mini-batch: a stacked input tensor and parallel label slice.
type Batch struct {
	X      *tensor.Tensor // [B, C, H, W]
	Labels []int
}

// sampleCopier is a dataset that copies a sample's values straight into
// a batch, building no tensor for it.
type sampleCopier interface {
	copySample(dst []float64, i int) int
}

// copySample copies sample i of ds into dst and returns its label.
func copySample(ds Dataset, dst []float64, i int) int {
	if c, ok := ds.(sampleCopier); ok {
		return c.copySample(dst, i)
	}
	x, y := ds.Sample(i)
	copy(dst, x.Data())
	return y
}

// Collate stacks the given samples of ds into a new Batch.
func Collate(ds Dataset, indices []int) Batch {
	var b Batch
	collateInto(&b, ds, indices, append([]int{len(indices)}, ds.Shape()...))
	return b
}

// collateInto stacks the given samples of ds into b, whose input tensor
// and label slice are reused when they are large enough; shape is the
// batch's [B, C, H, W].
func collateInto(b *Batch, ds Dataset, indices []int, shape []int) {
	b.X = tensor.Reuse(b.X, shape...)
	b.Labels = slices.Grow(b.Labels[:0], len(indices))[:len(indices)]
	dst, per := b.X.Data(), b.X.Size()/max(len(indices), 1)
	for bi, i := range indices {
		b.Labels[bi] = copySample(ds, dst[bi*per:(bi+1)*per], i)
	}
}

// Loader iterates a dataset in shuffled mini-batches, the analog of
// torch.utils.data.DataLoader.
type Loader struct {
	ds        Dataset
	batchSize int
	shuffle   bool
	r         *rng.RNG

	// view is an unshuffled pass over an InMemory dataset (evaluation):
	// its batches view the dataset's storage, and it keeps no order.
	view  bool
	order []int
	pos   int

	// batch is the storage every shuffled (or non-InMemory) batch is
	// collated into, or the header a view batch is cut through, and shape
	// its [B, C, H, W] scratch.
	batch Batch
	shape []int
}

// NewLoader builds a loader. batchSize must be positive; when shuffle is
// true a fresh permutation is drawn from r at every Reset.
func NewLoader(ds Dataset, batchSize int, shuffle bool, r *rng.RNG) *Loader {
	if batchSize <= 0 {
		panic("dataset: batch size must be positive")
	}
	l := &Loader{ds: ds, batchSize: batchSize, shuffle: shuffle, r: r}
	_, inMemory := ds.(*InMemory)
	l.view = inMemory && !shuffle
	l.Reset()
	return l
}

// Reset starts a new epoch (reshuffling when enabled).
func (l *Loader) Reset() {
	l.pos = 0
	if l.view {
		return
	}
	n := l.ds.Len()
	if cap(l.order) < n {
		l.order = make([]int, n)
	}
	l.order = l.order[:n]
	for i := range l.order {
		l.order[i] = i
	}
	if l.shuffle && l.r != nil {
		l.r.Shuffle(l.order)
	}
}

// Next returns the next batch of the epoch; ok is false once exhausted.
// The final batch of an epoch may be smaller than the batch size. A batch
// is valid until the next Next or Reset: the loader collates every batch
// into storage it keeps, so a training step allocates none. Like a
// Sample, a batch must not be mutated: an unshuffled pass over an InMemory
// dataset (evaluation) yields views of the dataset's own storage instead
// of copies.
func (l *Loader) Next() (Batch, bool) {
	n := l.ds.Len()
	if l.pos >= n {
		return Batch{}, false
	}
	end := min(l.pos+l.batchSize, n)
	l.shape = append(append(l.shape[:0], end-l.pos), l.ds.Shape()...)
	if l.view {
		l.ds.(*InMemory).view(&l.batch, l.pos, end, l.shape)
	} else {
		collateInto(&l.batch, l.ds, l.order[l.pos:end], l.shape)
	}
	l.pos = end
	return l.batch, true
}

// Batches returns the number of batches per epoch.
func (l *Loader) Batches() int {
	return (l.ds.Len() + l.batchSize - 1) / l.batchSize
}

// Federated is a dataset already partitioned over clients, with a shared
// held-out test set used by the server-side validation routine.
type Federated struct {
	Clients []Dataset
	Test    Dataset
}

// NumClients returns the number of client shards.
func (f *Federated) NumClients() int { return len(f.Clients) }

// TotalTrain returns the total number of training samples across clients.
func (f *Federated) TotalTrain() int {
	n := 0
	for _, c := range f.Clients {
		n += c.Len()
	}
	return n
}
