package core

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm/rpc"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/wire"
)

// runLosses executes one run and returns its per-round test losses.
func runLosses(t *testing.T, cfg Config, opts RunOptions) []float64 {
	t.Helper()
	fed := parallelTestFed(3, 192, 48, 11)
	res, err := Run(cfg, fed, parallelTestFactory(11), opts)
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, len(res.Rounds))
	for i, r := range res.Rounds {
		losses[i] = r.TestLoss
	}
	return losses
}

// TestRunStreamBitIdenticalToMonolithic: a full federation whose uplinks
// stream as fixed-size chunks produces bit-for-bit the per-round losses
// of the monolithic run, for dense and f16 uplinks, over every transport
// that speaks the chunk protocol — and over rpc with a straggler, whose
// cohort-mates stream ahead of the gather while it trains. Over rpc a
// monolithic run is windowed by the server, and it too must match.
func TestRunStreamBitIdenticalToMonolithic(t *testing.T) {
	straggler := func(client, round int) time.Duration {
		if client == 2 {
			return 20 * time.Millisecond
		}
		return 0
	}
	runs := []RunOptions{
		{Transport: TransportMPI},
		{Transport: TransportPubSub},
		{Transport: TransportRPC},
		{Transport: TransportRPC, ClientDelay: straggler},
	}
	if testing.Short() {
		runs = []RunOptions{runs[0], runs[3]}
	}
	for _, pipe := range []string{"", "clip:1,f16"} {
		name := "dense"
		if pipe != "" {
			name = "f16"
		}
		t.Run(name, func(t *testing.T) {
			base := Config{
				Algorithm: AlgoFedAvg, Rounds: 3, LocalSteps: 1, BatchSize: 32,
				Seed: 7, Scheduler: SchedSyncAll, Pipeline: pipe,
			}
			ref := runLosses(t, base, RunOptions{Transport: TransportMPI})
			for _, opts := range runs {
				streamed := base
				streamed.StreamChunk = 4096
				got := runLosses(t, streamed, opts)
				what := string(opts.Transport)
				if opts.ClientDelay != nil {
					what += " with a straggler"
				}
				if len(got) != len(ref) {
					t.Fatalf("%s: %d rounds, want %d", what, len(got), len(ref))
				}
				for i := range ref {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s: round %d loss %v, monolithic %v — streaming changed the trajectory",
							what, i+1, got[i], ref[i])
					}
				}
			}
		})
	}
	t.Run("monolithic-rpc-windowed", windowedRow)
}

// windowCounter is the rpc server with a count of the windows its
// readers cut: it embeds the server, so it keeps offering windowed mode.
type windowCounter struct {
	*rpc.Server
	windows atomic.Int64
}

func (w *windowCounter) RecvChunkFrom(client int) (*wire.ModelChunk, error) {
	mc, err := w.Server.RecvChunkFrom(client)
	if mc != nil {
		w.windows.Add(1)
	}
	return mc, err
}

// windowedLosses runs cfg over rpc with monolithic uploads and returns the
// per-round losses and how many primal windows the server folded.
func windowedLosses(t *testing.T, cfg Config, factory nn.Factory) ([]float64, int64) {
	t.Helper()
	fed := parallelTestFed(3, 192, 48, 11)
	st, cts, err := newServerTransport(TransportRPC, fed.NumClients(), nn.NumParams(factory()), cfg.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := &windowCounter{Server: st.(*rpc.Server)}
	res, err := RunWithTransport(cfg, fed, factory, RunOptions{}, srv, cts)
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, len(res.Rounds))
	for i, r := range res.Rounds {
		losses[i] = r.TestLoss
	}
	return losses, srv.windows.Load()
}

// windowedRow is TestRunStreamBitIdenticalToMonolithic's monolithic-rpc
// row: over rpc a FedAvg barrier run with a dense uplink uploads whole
// updates, and the server cuts each primal into fold windows as it reads
// it. The per-round losses must be those of the same run over mpi —
// decoded uploads, one Aggregate — bit for bit, at aggregation widths 1
// and 2, for the default stack and a private dense one, with a model of
// three windows.
func windowedRow(t *testing.T) {
	factory := func() nn.Module { return nn.NewMLP(28*28, []int{48}, 10, rng.New(11)) }
	dim := nn.NumParams(factory())
	for _, pipe := range []string{"", "clip:1,laplace:5"} {
		for _, procs := range []int{1, 2} {
			cfg := Config{
				Algorithm: AlgoFedAvg, Rounds: 3, LocalSteps: 1, BatchSize: 32,
				Seed: 7, Scheduler: SchedSyncAll, Pipeline: pipe,
			}
			prev := runtime.GOMAXPROCS(procs)
			fed := parallelTestFed(3, 192, 48, 11)
			ref, err := Run(cfg, fed, factory, RunOptions{Transport: TransportMPI})
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			got, windows := windowedLosses(t, cfg, factory)
			runtime.GOMAXPROCS(prev)
			if want := int64(cfg.Rounds * fed.NumClients() * ((dim + uploadWindow - 1) / uploadWindow)); windows != want {
				t.Fatalf("pipeline %q: the server folded %d windows, want %d: the run did not take the windowed path", pipe, windows, want)
			}
			for i, r := range ref.Rounds {
				if math.Float64bits(got[i]) != math.Float64bits(r.TestLoss) {
					t.Fatalf("pipeline %q, width %d: round %d loss %v, mpi %v — windowing changed the trajectory",
						pipe, procs, i+1, got[i], r.TestLoss)
				}
			}
		}
	}
}

// TestRunStreamSampledCohort: streaming composes with the sampled
// barrier scheduler — only the cohort streams, and the trajectory
// matches the monolithic sampled run bit for bit.
func TestRunStreamSampledCohort(t *testing.T) {
	base := Config{
		Algorithm: AlgoFedAvg, Rounds: 3, LocalSteps: 1, BatchSize: 32,
		Seed: 7, Scheduler: SchedSampled, CohortFraction: 0.7,
	}
	ref := runLosses(t, base, RunOptions{Transport: TransportMPI})
	streamed := base
	streamed.StreamChunk = 1000 // deliberately unaligned with dim
	got := runLosses(t, streamed, RunOptions{Transport: TransportMPI})
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("round %d loss %v, monolithic %v", i+1, got[i], ref[i])
		}
	}
}

// TestRunSubsetUpload: a SubsetFrac run completes, learns on the shared
// coordinate prefix, and uploads its prefix at the dense rate per
// coordinate.
func TestRunSubsetUpload(t *testing.T) {
	fed := parallelTestFed(3, 192, 48, 13)
	base := Config{
		Algorithm: AlgoFedAvg, Rounds: 3, LocalSteps: 1, BatchSize: 32,
		Seed: 9, Scheduler: SchedSyncAll,
	}
	dense, err := Run(base, fed, parallelTestFactory(13), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub := base
	sub.SubsetFrac = 0.25
	got, err := Run(sub, fed, parallelTestFactory(13), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rounds) != sub.Rounds {
		t.Fatalf("completed %d rounds", len(got.Rounds))
	}
	for _, r := range got.Rounds {
		if math.IsNaN(r.TestLoss) || math.IsInf(r.TestLoss, 0) {
			t.Fatalf("round %d loss %v", r.Round, r.TestLoss)
		}
	}
	// A quarter of the coordinates at 8 bytes each against 8 bytes per
	// dense coordinate, plus the same per-message framing: 0.2502 at this
	// geometry. Assert under 0.26.
	t.Logf("subset uploads %d bytes, dense %d: %.4f", got.UploadsB, dense.UploadsB, float64(got.UploadsB)/float64(dense.UploadsB))
	if got.UploadsB*100 >= dense.UploadsB*26 {
		t.Fatalf("subset uploads %d bytes, 0.26 or more of the dense run's %d", got.UploadsB, dense.UploadsB)
	}
}

// TestRunStreamRejectsIncompatibleConfig: the gating added for streaming
// and subsets rejects the shapes the chunk fold cannot reproduce.
func TestRunStreamRejectsIncompatibleConfig(t *testing.T) {
	bad := []Config{
		{Algorithm: AlgoIIADMM, Rounds: 1, StreamChunk: 64},
		{Algorithm: AlgoFedAvg, Rounds: 1, StreamChunk: 64, Scheduler: SchedBuffered, BufferK: 2},
		{Algorithm: AlgoFedAvg, Rounds: 1, StreamChunk: 64, RoundTimeout: 1},
		{Algorithm: AlgoFedAvg, Rounds: 1, StreamChunk: 64, Pipeline: "topk:0.5"},
		{Algorithm: AlgoFedAvg, Rounds: 1, StreamChunk: -1},
		{Algorithm: AlgoFedAvg, Rounds: 1, SubsetFrac: 1.5},
		{Algorithm: AlgoFedAvg, Rounds: 1, SubsetFrac: 0.5, Pipeline: "clip:1,quantize:8"},
		{Algorithm: AlgoFedAvg, Rounds: 1, SubsetFrac: 0.5, StreamChunk: 64},
		{Algorithm: AlgoIIADMM, Rounds: 1, SubsetFrac: 0.5},
	}
	for i, cfg := range bad {
		if err := cfg.WithDefaults().Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}
