package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// TestEvaluateAllocationGate: a warmed validation pass of the benchmark's
// CNN over its 240-sample test set allocates a loader and a few goroutine
// closures — not the 1.5 MB collated batch, the per-sample im2col matrices
// or a row view per prediction it used to.
func TestEvaluateAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, test := dataset.MNIST(dataset.SynthConfig{Train: 16, Test: 240, Seed: 7})
	m := nn.NewCNN(nn.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, rng.New(1))
	var loss, acc float64
	eval := func() { loss, acc = Evaluate(m, test, 256) }
	eval()
	eval()
	wantLoss, wantAcc := loss, acc
	mallocs, bytes := testutil.AllocsPer(10, eval)
	t.Logf("%.1f mallocs, %.0f bytes per warmed Evaluate", mallocs, bytes)
	if mallocs > 64 || bytes > 64<<10 {
		t.Fatalf("a warmed Evaluate made %.1f allocations totalling %.0f bytes; the gate is 64 and 64 KiB", mallocs, bytes)
	}
	if loss != wantLoss || acc != wantAcc {
		t.Fatalf("Evaluate moved on reused workspaces: %v/%v then %v/%v", wantLoss, wantAcc, loss, acc)
	}
}

// TestCNNLocalUpdateAllocationGate: a warmed LocalUpdate of the
// benchmark's CNN client (IIADMM and FedAvg, two epochs of shuffled
// 64-sample batches) allocates no batch: the loader collates every batch
// into storage it keeps and copies each sample straight into it. The gate
// is a quarter of one collated batch's input (64·28·28 doubles) and 256
// allocations per update (the conv layers' worker closures); collating a
// fresh batch per step allocated 3.07 MB and 1,209 objects per update.
func TestCNNLocalUpdateAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	train, _ := dataset.MNIST(dataset.SynthConfig{Train: 960, Test: 16, Seed: 7})
	shard := dataset.PartitionIID(train, 4, rng.New(8))[0]
	batch := float64(64 * 28 * 28 * 8)
	for _, algo := range []string{AlgoIIADMM, AlgoFedAvg} {
		cfg := Config{Algorithm: algo, Rounds: 1, LocalSteps: 2, Seed: 3}.WithDefaults()
		model := nn.NewCNN(nn.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, rng.New(1))
		w0 := nn.FlattenParams(model, nil)
		cr := rng.New(6)
		client, err := NewClient(cfg, 0, model, shard, w0, testPipe(t, cfg, cr), cr)
		if err != nil {
			t.Fatal(err)
		}
		round := 0
		update := func() {
			round++
			if _, err := client.LocalUpdate(round, w0); err != nil {
				t.Fatal(err)
			}
		}
		update()
		update()
		mallocs, bytes := testutil.AllocsPer(3, update)
		t.Logf("%s: %.1f mallocs, %.0f bytes per warmed LocalUpdate (one batch is %.0f bytes)", algo, mallocs, bytes, batch)
		if bytes > batch/4 || mallocs > 256 {
			t.Errorf("%s: a warmed LocalUpdate made %.1f allocations totalling %.0f bytes; the gate is 256 and %.0f",
				algo, mallocs, bytes, batch/4)
		}
	}
}

// TestLocalUpdateReusesModelSizedBuffers: after the first rounds a client
// algorithm allocates no model-sized vector per round — not the iterate or
// the gradient (every algorithm trains in the model's own vectors), not the
// released primal (FedAvg and IIADMM release the model's parameter vector
// itself; ICEADMM copies z and λ into buffers it keeps), not the densified
// release under a compressing pipeline, not fullGrad's accumulator. The
// model is wide and the dataset tiny so that one vector (dim·8 bytes)
// dwarfs everything the loader allocates. The first LocalUpdate allocates
// just the vectors the algorithm keeps besides the model's two (kept):
// FedAvg's momentum only when a round has a second step to read it.
// Through the client loop, a FedAvg client of one step per round holds the
// model's two vectors and no other: the transport decodes every received
// model into the gradient vector it lends. IIADMM, which reads the
// received model all round, holds the transport's receive buffer and its
// λ besides.
func TestLocalUpdateReusesModelSizedBuffers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	r := rng.New(4)
	images := tensor.New(8, 1, 4, 4)
	r.FillNormal(images.Data(), 0, 1)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	ds := dataset.NewInMemory(images, labels, 3)
	factory := func() nn.Module { return nn.NewMLP(16, []int{4096}, 3, rng.New(5)) }
	w0 := nn.FlattenParams(factory(), nil)
	vector := float64(8 * len(w0))
	for _, c := range []struct {
		algo, pipe string
		steps      int
		kept       float64
	}{
		{AlgoFedAvg, "", 2, 1}, {AlgoFedAvg, "quantize:8", 2, 1}, // momentum
		{AlgoFedAvg, "", 1, 0}, {AlgoFedAvg, "quantize:8", 1, 0}, // no step reads the momentum
		{AlgoIIADMM, "", 2, 0}, {AlgoIIADMM, "quantize:8", 2, 1}, // the densified release
		{AlgoICEADMM, "", 2, 3}, {AlgoICEADMM, "quantize:8", 2, 3}, // fullGrad's sum, z and λ out
	} {
		cfg := Config{Algorithm: c.algo, Rounds: 1, LocalSteps: c.steps, BatchSize: 8, Pipeline: c.pipe, Seed: 3}.WithDefaults()
		cr := rng.New(6)
		model := factory()
		// One step sizes the layers' workspaces, which the first update
		// would otherwise count.
		_, d := nn.CrossEntropy(model.Forward(images), labels)
		nn.BackwardParams(model, d)
		client, err := NewClient(cfg, 0, model, ds, w0, testPipe(t, cfg, cr), cr)
		if err != nil {
			t.Fatal(err)
		}
		round := 0
		var up *wire.LocalUpdate
		update := func() {
			round++
			if up, err = client.LocalUpdate(round, w0); err != nil {
				t.Fatal(err)
			}
		}
		_, cold := testutil.AllocsPer(1, update)
		if cold > (c.kept+0.5)*vector {
			t.Fatalf("%s %q, %d steps: the first LocalUpdate allocated %.1f model-sized vectors; the algorithm keeps %v",
				c.algo, c.pipe, c.steps, cold/vector, c.kept)
		}
		update()
		_, bytes := testutil.AllocsPer(5, update)
		t.Logf("%s %q: %.0f bytes per warmed LocalUpdate (one vector is %.0f)", c.algo, c.pipe, bytes, vector)
		if bytes > vector/2 {
			t.Fatalf("%s %q: a warmed LocalUpdate allocated %.0f bytes; one model-sized vector is %.0f", c.algo, c.pipe, bytes, vector)
		}
		if c.algo != AlgoICEADMM && c.pipe == "" && &up.Primal[0] != &nn.ParamVector(model)[0] {
			t.Fatalf("%s: the dense update's primal is not the model's parameter vector", c.algo)
		}
	}
	var frames [][]byte
	for round := 1; round <= 2; round++ {
		var e wire.Encoder
		frames = append(frames, append([]byte(nil), e.Encode(&wire.GlobalModel{Round: uint32(round), Version: uint64(round), Weights: w0})...))
	}
	for _, c := range []struct {
		algo string
		held float64
	}{{AlgoFedAvg, 2}, {AlgoIIADMM, 4}} {
		cfg := Config{Algorithm: c.algo, Rounds: 2, LocalSteps: 1, BatchSize: 8, Seed: 3}.WithDefaults()
		model := factory()
		_, d := nn.CrossEntropy(model.Forward(images), labels)
		nn.BackwardParams(model, d)
		ct := &frameTransport{frames: frames}
		_, bytes := testutil.AllocsPer(1, func() {
			client, err := newRunClient(cfg, 0, rng.New(6), model, w0, ds)
			if err == nil {
				err = runClient(cfg, client, ct, ClientOptions{})
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		held := 2 + bytes/vector
		t.Logf("%s through the client loop: the model's two vectors and %.0f bytes (%.2f vectors)", c.algo, bytes, held)
		if math.Abs(held-c.held) > 0.5 {
			t.Fatalf("%s: a client run through the client loop holds %.2f model-sized vectors, want %v", c.algo, held, c.held)
		}
	}
}

// frameTransport plays encoded GlobalModel frames to the client loop,
// decoding each into the one message it keeps, as the transports do.
type frameTransport struct {
	comm.ClientTransport
	frames [][]byte
	model  wire.GlobalModel
}

func (f *frameTransport) RecvGlobal() (*wire.GlobalModel, error) {
	if len(f.frames) == 0 {
		return &wire.GlobalModel{Final: true}, nil
	}
	frame := f.frames[0]
	f.frames = f.frames[1:]
	return &f.model, f.model.UnmarshalDense(wire.NewDecoder(frame))
}

func (f *frameTransport) ReceiveInto(w []float64)            { f.model.Weights = w[:0] }
func (f *frameTransport) SendUpdate(*wire.LocalUpdate) error { return nil }

// windowFeed is a server transport that feeds windowed rounds by hand,
// as a transport's inbox would: RecvChunkFrom hands out each client's
// primal in uploadWindow windows, copied into pooled chunks, and GatherFrom
// the slim updates, which carry no primal. With failAt > 0 the receive of
// that window from the last client fails, as a connection lost mid-upload
// does.
type windowFeed struct {
	comm.ServerTransport // nil: only the methods below are called
	data                 []*wire.LocalUpdate
	next                 []int
	windows              int
	failAt               int
}

var errFeedLost = errors.New("feed: connection lost")

func (f *windowFeed) RecvChunkFrom(c int) (*wire.ModelChunk, error) {
	u, i := f.data[c], f.next[c]
	if f.failAt > 0 && c == len(f.data)-1 && i == f.failAt {
		return nil, errFeedLost
	}
	f.next[c]++
	dim := len(u.Primal)
	lo, hi := wire.ChunkRange(dim, uploadWindow, i)
	mc := comm.NewChunk()
	p := mc.Payload
	if p == nil {
		p = new(wire.Payload)
	}
	*mc = wire.ModelChunk{ClientID: u.ClientID, Round: u.Round, Index: uint32(i), Count: uint32(wire.ChunkPlan(dim, uploadWindow)),
		Lo: uint32(lo), Hi: uint32(hi), Dim: uint32(dim), NumSamples: u.NumSamples, Payload: p}
	p.Enc, p.Dim = wire.EncDense, uint32(hi-lo)
	p.Dense = append(p.Dense[:0], u.Primal[lo:hi]...)
	f.windows++
	return mc, nil
}

func (f *windowFeed) SendChunkAck(int, *wire.ChunkAck) error { return nil }

func (f *windowFeed) GatherFrom(ids []int) ([]*wire.LocalUpdate, error) {
	out := make([]*wire.LocalUpdate, len(ids))
	for k, c := range ids {
		d, u := f.data[c], comm.NewUpdate()
		u.ClientID, u.Round, u.NumSamples, u.BaseVersion, u.InCohort = d.ClientID, d.Round, d.NumSamples, d.BaseVersion, true
		out[k] = u
		f.next[c] = 0
	}
	return out, nil
}

// feedServer is a barrier server over a windowFeed of data, journaled
// through jw into agg: the windowed round's pieces, with no round loop or
// transport around them.
func feedServer(cfg Config, agg Aggregator, mem *membership, jw *journalWriter, data []*wire.LocalUpdate) (*server, *windowFeed, error) {
	feed := &windowFeed{data: data, next: make([]int, len(data))}
	ss, err := NewStreamSession(agg)
	if err != nil {
		return nil, nil, err
	}
	s := &server{cfg: cfg, agg: agg, st: feed, mem: mem, jw: jw,
		win: &windowFold{src: feed, width: uploadWindow, ss: ss}}
	return s, feed, nil
}

// TestJournaledRoundAllocatesNoModelSizedBuffer: the server side of a
// journaled round — round start, one admit per update, the fold, the
// commit, (every round here) a checkpoint, and the round's record with
// ValidateEvery 1 — allocates no vector the size of the model once warmed.
// The barrier round is windowed: each admit is reserved once the first
// window is in and written window by window from the cut uploads, each
// window folded after it is written. The buffered release journals its
// gathered primals with one Append and folds them. The commit and
// checkpoint are written from the aggregator's own model, and the
// evaluation loads that model straight into the evaluation replica's
// vector; the journal keeps no encoded copy of either. What was written
// is the model: the checkpoint replays bit-equal to the aggregator.
func TestJournaledRoundAllocatesNoModelSizedBuffer(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const clients = 4
	evalModel := nn.NewMLP(16, []int{12483}, 4, rng.New(1)) // ~2^18 parameters
	dim := nn.NumParams(evalModel)
	vector := float64(8 * dim)
	images := tensor.New(8, 1, 4, 4)
	rng.New(9).FillNormal(images.Data(), 0, 1)
	fed := &dataset.Federated{Test: dataset.NewInMemory(images, []int{0, 1, 2, 3, 0, 1, 2, 3}, 4)}
	for _, sched := range []string{SchedSyncAll, SchedBuffered} {
		cfg := Config{Algorithm: AlgoFedAvg, Scheduler: sched}.WithDefaults()
		w0 := make([]float64, dim)
		rng.New(1).FillNormal(w0, 0, 0.01)
		agg, err := NewAggregator(cfg, w0, clients)
		if err != nil {
			t.Fatal(err)
		}
		j, err := journal.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		j.NoSync = true
		jw := newJournalWriter(j, 1, nil)
		mem := newMembership(clients)
		mem.onLedger = jw.ledger
		cohort := []int{0, 1, 2, 3}
		data := make([]*wire.LocalUpdate, clients)
		for c := range data {
			data[c] = &wire.LocalUpdate{ClientID: uint32(c), NumSamples: uint64(10 + c), Primal: make([]float64, dim)}
			rng.New(uint64(c+2)).FillNormal(data[c].Primal, 0, 0.01)
		}
		var s *server
		var feed *windowFeed
		if sched == SchedSyncAll {
			if s, feed, err = feedServer(cfg, agg, mem, jw, data); err != nil {
				t.Fatal(err)
			}
		}
		res := &Result{}
		round := 0
		journaled := func() {
			round++
			for _, u := range data {
				u.Round, u.BaseVersion = uint32(round), uint64(agg.Version())
			}
			jw.roundStart(round, cohort, uint64(agg.Version()))
			if sched == SchedSyncAll {
				if err := s.win.fold(s, round, cohort, nil, cohort); err != nil {
					t.Fatal(err)
				}
				gathered, err := s.gather(cohort, round)
				if err != nil {
					t.Fatal(err)
				}
				comm.ReleaseUpdates(gathered)
			} else {
				jw.admitBatch(round, data)
				if err := agg.Aggregate(data); err != nil {
					t.Fatal(err)
				}
			}
			if err := jw.commit(round, agg, mem, 0); err != nil {
				t.Fatal(err)
			}
			recordRound(res, RoundStats{Round: round}, agg, evalModel, fed, 1<<20, 1, time.Now(), nil)
		}
		journaled()
		journaled()
		_, bytes := testutil.AllocsPer(3, journaled)
		t.Logf("%s: %.0f bytes per warmed journaled round (one vector is %.0f)", sched, bytes, vector)
		if bytes > vector/2 {
			t.Fatalf("%s: a warmed journaled round allocated %.0f bytes; one model-sized vector is %.0f", sched, bytes, vector)
		}
		if want := 0; sched == SchedSyncAll {
			want = round * clients * wire.ChunkPlan(dim, uploadWindow)
			if feed.windows != want {
				t.Fatalf("%d windows folded in %d rounds, want %d: the barrier round did not window", feed.windows, round, want)
			}
		}
		if last := res.Rounds[len(res.Rounds)-1]; last.TestLoss == 0 || math.IsNaN(last.TestLoss) {
			t.Fatalf("%s: round %d was not evaluated: %+v", sched, round, last)
		}
		if s := j.Stats(); s.Frames != uint64(round*(clients+2)) {
			t.Fatalf("%s: %d frames in %d rounds, want %d", sched, s.Frames, round, round*(clients+2))
		}
		recd, err := j.Recover()
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		w := agg.Weights()
		cp := recd.Checkpoint
		if cp == nil || cp.Version != uint64(agg.Version()) || len(cp.Weights) != dim {
			t.Fatalf("%s: checkpoint after round %d: %+v", sched, round, cp)
		}
		for i := range w {
			if math.Float64bits(cp.Weights[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: checkpointed weight %d is %v, the aggregator holds %v", sched, i, cp.Weights[i], w[i])
			}
		}
	}
}

// TestWindowedJournalAbandonsAFailedGather: a windowed journaled round
// whose gather fails mid-round — the last client's connection lost after
// the admits were reserved and their first windows written — fails the
// round and cuts the WAL back to its last whole frame, the round start;
// so does a slim update whose BaseVersion is not the version the round
// dispatched, before any admit header lands.
func TestWindowedJournalAbandonsAFailedGather(t *testing.T) {
	const clients, dim = 3, 3*uploadWindow + 10
	cfg := Config{Algorithm: AlgoFedAvg, Scheduler: SchedSyncAll}.WithDefaults()
	for _, c := range []struct {
		name   string
		failAt int  // window whose receive fails
		stale  bool // the last update echoes another version
	}{
		{"connection lost", 2, false},
		{"stale base version", 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			agg, err := NewAggregator(cfg, make([]float64, dim), clients)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			j, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			j.NoSync = true
			defer j.Close()
			jw := newJournalWriter(j, 0, nil)
			data := make([]*wire.LocalUpdate, clients)
			for i := range data {
				data[i] = &wire.LocalUpdate{ClientID: uint32(i), Round: 1, NumSamples: 5, Primal: make([]float64, dim)}
			}
			if c.stale {
				data[clients-1].BaseVersion = 7
			}
			s, feed, err := feedServer(cfg, agg, newMembership(clients), jw, data)
			if err != nil {
				t.Fatal(err)
			}
			feed.failAt = c.failAt
			cohort := []int{0, 1, 2}
			jw.roundStart(1, cohort, 0)
			end := j.Stats().Bytes
			err = s.win.fold(s, 1, cohort, nil, cohort)
			if err == nil {
				_, err = s.gather(cohort, 1)
			}
			if err == nil {
				t.Fatal("the round did not fail")
			}
			t.Log(err)
			if c.failAt > 0 && !errors.Is(err, errFeedLost) {
				t.Fatalf("failed with %v, want the lost connection", err)
			}
			info, err := os.Stat(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			if uint64(info.Size()) != end {
				t.Fatalf("the WAL holds %d bytes after the failed round; its last whole frame ends at %d", info.Size(), end)
			}
			if jw.reserved {
				t.Fatal("the failed round left its admits reserved")
			}
			jw.roundStart(1, cohort, 0)
			if jw.err != nil {
				t.Fatalf("the journal took no append after the failed round: %v", jw.err)
			}
		})
	}
}
