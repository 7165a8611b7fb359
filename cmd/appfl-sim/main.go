// Command appfl-sim runs one configurable federated-learning simulation —
// the equivalent of APPFL's MPI simulation driver. All clients run as
// goroutines in this process against the selected transport backend.
//
// Example:
//
//	appfl-sim -algorithm iiadmm -dataset mnist -clients 4 -rounds 10 -pipeline clip:1,laplace:10
package main

import (
	"flag"
	"fmt"
	"os"

	appfl "repro"
	"repro/internal/core"
)

func main() {
	algorithm := flag.String("algorithm", "iiadmm", "fedavg | iceadmm | iiadmm")
	ds := flag.String("dataset", "mnist", "mnist | cifar10 | femnist | coronahack")
	clients := flag.Int("clients", 4, "number of clients (FEMNIST: writers)")
	rounds := flag.Int("rounds", 10, "communication rounds T")
	localSteps := flag.Int("local-steps", 10, "local steps/epochs L")
	batch := flag.Int("batch", 64, "local mini-batch size")
	pipe := flag.String("pipeline", "", "update-pipeline spec, e.g. clip:1,laplace:0.5,topk:0.1 (empty = non-private clip:1)")
	downF16 := flag.Bool("downlink-f16", false, "broadcast the global model as float16 (~4x downlink cut)")
	train := flag.Int("train", 960, "training samples")
	test := flag.Int("test", 240, "test samples")
	seed := flag.Uint64("seed", 1, "master seed")
	transport := flag.String("transport", "mpi", "mpi | pubsub | rpc")
	scheduler := flag.String("scheduler", "syncall", "syncall | sampled | buffered")
	cohortFraction := flag.Float64("cohort-fraction", 0.25, "sampled: fraction of clients per round")
	cohortMin := flag.Int("cohort-min", 1, "sampled: minimum cohort size")
	bufferK := flag.Int("buffer-k", 0, "buffered: updates per release (0 = half the clients)")
	maxStaleness := flag.Int("max-staleness", 0, "buffered: drop updates staler than this many releases (0 = keep all)")
	alpha := flag.Float64("alpha", 0, "buffered: base mixing rate (0 = default 0.6)")
	gamma := flag.Float64("gamma", 0, "buffered: staleness-decay exponent (0 = default 0.5)")
	faultPlan := flag.String("faults", "", `fault-injection plan, e.g. "crash:20%@3,drop:0:0.3" (see README)`)
	faultSeed := flag.Uint64("fault-seed", 42, "seed driving the fault plan's random choices")
	roundTimeout := flag.Duration("round-timeout", 0, "server deadline per round (0 = wait forever; required to survive crash faults)")
	minCohort := flag.Int("min-cohort", 0, "quorum: minimum survivors a deadline-cut round may aggregate (0 = 1)")
	aggWorkers := flag.Int("agg-workers", 0, "sharded aggregation width (0 = GOMAXPROCS, 1 = serial; bit-identical results at any width)")
	chunk := flag.Int("chunk", 0, "stream uplinks as chunks of this many coordinates (0 = monolithic; FedAvg barrier schedulers only, bit-identical)")
	subset := flag.Float64("subset", 0, "LoRA-style partial uploads: fraction of coordinates each client sends (0 = dense; FedAvg only)")
	flag.Parse()

	var fed *appfl.Federated
	var factory appfl.Factory
	switch *ds {
	case "mnist":
		fed = appfl.MNISTFederation(*clients, *train, *test, *seed)
		factory = appfl.CNNFactory(appfl.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, *seed)
	case "cifar10":
		fed = appfl.CIFAR10Federation(*clients, *train, *test, *seed)
		factory = appfl.CNNFactory(appfl.CNNConfig{InChannels: 3, Height: 32, Width: 32, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, *seed)
	case "coronahack":
		fed = appfl.CoronaHackFederation(*clients, *train, *test, *seed)
		factory = appfl.CNNFactory(appfl.CNNConfig{InChannels: 1, Height: 64, Width: 64, Classes: 3, Conv1: 4, Conv2: 8, Hidden: 32}, *seed)
	case "femnist":
		spw := *train / *clients
		if spw < 4 {
			spw = 4
		}
		fed = appfl.FEMNISTFederation(*clients, spw, *test, *seed)
		factory = appfl.CNNFactory(appfl.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 62, Conv1: 4, Conv2: 8, Hidden: 32}, *seed)
	default:
		fmt.Fprintf(os.Stderr, "appfl-sim: unknown dataset %q\n", *ds)
		os.Exit(2)
	}

	cfg := appfl.Config{
		Algorithm:      *algorithm,
		Rounds:         *rounds,
		LocalSteps:     *localSteps,
		BatchSize:      *batch,
		Pipeline:       *pipe,
		DownlinkF16:    *downF16,
		Seed:           *seed,
		Scheduler:      *scheduler,
		CohortFraction: *cohortFraction,
		CohortMin:      *cohortMin,
		BufferK:        *bufferK,
		MaxStaleness:   *maxStaleness,
		AsyncAlpha:     *alpha,
		AsyncGamma:     *gamma,
		RoundTimeout:   *roundTimeout,
		MinCohort:      *minCohort,
		AggWorkers:     *aggWorkers,
		StreamChunk:    *chunk,
		SubsetFrac:     *subset,
	}
	if *scheduler != appfl.SchedSampled {
		cfg.CohortFraction = 0
		cfg.CohortMin = 0
	}
	var inj *appfl.FaultInjector
	if *faultPlan != "" {
		var err error
		inj, err = appfl.ParseFaultPlan(*faultPlan, fed.NumClients(), *faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "appfl-sim:", err)
			os.Exit(2)
		}
	}
	fmt.Printf("appfl-sim: %s on %s, %d clients, T=%d, L=%d, pipeline=%q, transport=%s, scheduler=%s\n",
		*algorithm, *ds, fed.NumClients(), *rounds, *localSteps, *pipe, *transport, *scheduler)
	res, err := appfl.Run(cfg, fed, factory, appfl.RunOptions{
		Transport: core.Transport(*transport),
		Progress:  os.Stdout,
		Faults:    inj,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "appfl-sim:", err)
		os.Exit(1)
	}
	fmt.Printf("final accuracy %.4f  loss %.4f  model dim %d\n", res.FinalAcc, res.FinalLoss, res.ModelDim)
	fmt.Printf("traffic: uploads %d B, downloads %d B (%.2f models/client/round up)\n",
		res.UploadsB, res.DownloadsB,
		float64(res.UploadsB)/float64(fed.NumClients()*(*rounds)*8*res.ModelDim))
	if res.Stale > 0 || res.Dropped > 0 {
		fmt.Printf("staleness: %d stale updates folded, %d dropped beyond the bound\n", res.Stale, res.Dropped)
	}
	if res.Crashed > 0 || res.Rejoined > 0 || res.TimedOut > 0 {
		fmt.Printf("faults absorbed: %d presumed dead, %d rejoined, %d timed-out obligations\n",
			res.Crashed, res.Rejoined, res.TimedOut)
	}
}
