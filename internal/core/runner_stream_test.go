package core

import (
	"math"
	"testing"
	"time"
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
// cohort-mates stream ahead of the gather while it trains.
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
// coordinate prefix, and uploads strictly fewer bytes than the dense run.
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
	// A quarter of the coordinates at 12 bytes each (value + fixed32
	// index) against 8 bytes per dense coordinate is a 0.375 ratio; MPI's
	// 6-bytes-per-word packing inflates the subset side by 8/6, landing at
	// one half. Assert comfortably under two thirds.
	if got.UploadsB*3 >= dense.UploadsB*2 {
		t.Fatalf("subset uploads %d bytes not sub-linear vs dense %d", got.UploadsB, dense.UploadsB)
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
		{Algorithm: AlgoFedAvg, Rounds: 1, SubsetFrac: 0.5, Pipeline: "clip:1"},
		{Algorithm: AlgoFedAvg, Rounds: 1, SubsetFrac: 0.5, StreamChunk: 64},
		{Algorithm: AlgoIIADMM, Rounds: 1, SubsetFrac: 0.5},
	}
	for i, cfg := range bad {
		if err := cfg.WithDefaults().Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}
