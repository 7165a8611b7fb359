package core

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
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
// cohort-mates stream ahead of the gather while it trains. On every
// transport a monolithic run is windowed by the server, and it too must
// match.
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
	for _, tr := range []Transport{TransportMPI, TransportPubSub, TransportRPC} {
		t.Run("monolithic-"+string(tr)+"-windowed", func(t *testing.T) { windowedRow(t, tr) })
	}
}

// windowedServer is a transport's own server: every one offers windowed
// mode.
type windowedServer interface {
	comm.ServerTransport
	comm.UploadWindower
}

// windowCounter is a transport's server with a count of the windows its
// inbox cut: it forwards windowed mode.
type windowCounter struct {
	windowedServer
	windows atomic.Int64
}

func (w *windowCounter) RecvChunkFrom(client int) (*wire.ModelChunk, error) {
	mc, err := w.windowedServer.RecvChunkFrom(client)
	if mc != nil {
		w.windows.Add(1)
	}
	return mc, err
}

// gatheredOnly is a transport's server seen through a wrapper that does
// not forward windowed mode: its runs decode every upload whole and fold
// the gathered batch (Aggregate).
type gatheredOnly struct{ comm.ServerTransport }

// transportLosses runs cfg over tr with monolithic uploads, the server
// wrapped by wrap, and returns the per-round losses.
func transportLosses(t *testing.T, cfg Config, factory nn.Factory, tr Transport,
	wrap func(comm.ServerTransport) comm.ServerTransport) []float64 {
	t.Helper()
	fed := parallelTestFed(3, 192, 48, 11)
	st, cts, err := newServerTransport(tr, fed.NumClients(), nn.NumParams(factory()), cfg.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := RunWithTransport(cfg, fed, factory, RunOptions{}, wrap(st), cts)
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, len(res.Rounds))
	for i, r := range res.Rounds {
		losses[i] = r.TestLoss
	}
	return losses
}

// windowedRow is TestRunStreamBitIdenticalToMonolithic's monolithic row
// over tr: a FedAvg barrier run with a dense uplink uploads whole updates,
// and the server's inbox cuts each primal into fold windows as it decodes
// it. The per-round losses must be those of the same run over mpi with
// windowed mode hidden — decoded uploads, one Aggregate — bit for bit, at
// aggregation widths 1 and 2, for the default stack and a private dense
// one, with a model of three windows.
func windowedRow(t *testing.T, tr Transport) {
	factory := func() nn.Module { return nn.NewMLP(28*28, []int{48}, 10, rng.New(11)) }
	dim := nn.NumParams(factory())
	gathered := func(st comm.ServerTransport) comm.ServerTransport { return gatheredOnly{st} }
	for _, pipe := range []string{"", "clip:1,laplace:5"} {
		for _, procs := range []int{1, 2} {
			cfg := Config{
				Algorithm: AlgoFedAvg, Rounds: 3, LocalSteps: 1, BatchSize: 32,
				Seed: 7, Scheduler: SchedSyncAll, Pipeline: pipe,
			}
			prev := runtime.GOMAXPROCS(procs)
			ref := transportLosses(t, cfg, factory, TransportMPI, gathered)
			var counter *windowCounter
			got := transportLosses(t, cfg, factory, tr, func(st comm.ServerTransport) comm.ServerTransport {
				counter = &windowCounter{windowedServer: st.(windowedServer)}
				return counter
			})
			runtime.GOMAXPROCS(prev)
			if want := int64(cfg.Rounds * 3 * ((dim + uploadWindow - 1) / uploadWindow)); counter.windows.Load() != want {
				t.Fatalf("pipeline %q: the server folded %d windows, want %d: the run did not take the windowed path",
					pipe, counter.windows.Load(), want)
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("pipeline %q, width %d: round %d loss %.17g, gathered %.17g — windowing changed the trajectory",
						pipe, procs, i+1, got[i], ref[i])
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
