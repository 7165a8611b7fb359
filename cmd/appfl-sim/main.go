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

// options is the parsed command line.
type options struct {
	dataset, transport, faultPlan string
	clients, train, test          int
	faultSeed                     uint64
	cfg                           appfl.Config
}

// parseFlags turns the command line into options, refusing what no run
// could start from. The Config itself is validated by appfl.Run.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	c := &o.cfg
	fs := flag.NewFlagSet("appfl-sim", flag.ContinueOnError)
	fs.StringVar(&c.Algorithm, "algorithm", "iiadmm", "fedavg | iceadmm | iiadmm")
	fs.StringVar(&o.dataset, "dataset", "mnist", "mnist | cifar10 | femnist | coronahack")
	fs.IntVar(&o.clients, "clients", 4, "number of clients (FEMNIST: writers)")
	fs.IntVar(&c.Rounds, "rounds", 10, "communication rounds T")
	fs.IntVar(&c.LocalSteps, "local-steps", 10, "local steps/epochs L")
	fs.IntVar(&c.BatchSize, "batch", 64, "local mini-batch size")
	fs.StringVar(&c.Pipeline, "pipeline", "", "update-pipeline spec, e.g. clip:1,laplace:5,quantize:8 (empty = non-private clip:1)")
	fs.BoolVar(&c.DownlinkF16, "downlink-f16", false, "broadcast the global model as float16 (~4x downlink cut)")
	fs.IntVar(&o.train, "train", 960, "training samples")
	fs.IntVar(&o.test, "test", 240, "test samples")
	fs.Uint64Var(&c.Seed, "seed", 1, "master seed")
	fs.StringVar(&o.transport, "transport", "mpi", "mpi | pubsub | rpc")
	fs.StringVar(&c.Scheduler, "scheduler", "syncall", "syncall | sampled | buffered")
	fs.Float64Var(&c.CohortFraction, "cohort-fraction", 0.25, "sampled: fraction of clients per round")
	fs.IntVar(&c.CohortMin, "cohort-min", 1, "sampled: minimum cohort size")
	fs.IntVar(&c.BufferK, "buffer-k", 0, "buffered: updates per release (0 = half the clients)")
	fs.IntVar(&c.MaxStaleness, "max-staleness", 0, "buffered: drop updates staler than this many releases (0 = keep all)")
	fs.Float64Var(&c.AsyncAlpha, "alpha", 0, "buffered: base mixing rate (0 = default 0.6)")
	fs.Float64Var(&c.AsyncGamma, "gamma", 0, "buffered: staleness-decay exponent (0 = default 0.5)")
	fs.StringVar(&o.faultPlan, "faults", "", `fault-injection plan, e.g. "crash:20%@3,drop:0:0.3" (see README)`)
	fs.Uint64Var(&o.faultSeed, "fault-seed", 42, "seed driving the fault plan's random choices")
	fs.DurationVar(&c.RoundTimeout, "round-timeout", 0, "server deadline per round (0 = wait forever; required to survive crash faults)")
	fs.IntVar(&c.MinCohort, "min-cohort", 0, "quorum: minimum survivors a deadline-cut round may aggregate (0 = 1)")
	fs.IntVar(&c.StreamChunk, "chunk", 0, "stream uplinks as chunks of this many coordinates (0 = monolithic; FedAvg barrier schedulers only, bit-identical)")
	fs.Float64Var(&c.SubsetFrac, "subset", 0, "LoRA-style partial uploads: fraction of coordinates each client sends (0 = dense; FedAvg only)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.clients < 1 {
		return nil, fmt.Errorf("-clients must be at least 1, got %d", o.clients)
	}
	if workloads[o.dataset] == nil {
		return nil, fmt.Errorf("unknown dataset %q", o.dataset)
	}
	if c.Scheduler != appfl.SchedSampled {
		c.CohortFraction = 0
		c.CohortMin = 0
	}
	return o, nil
}

// cnn is the simulator's model at a dataset's geometry.
func cnn(inChannels, side, classes int, seed uint64) appfl.Factory {
	return appfl.CNNFactory(appfl.CNNConfig{InChannels: inChannels, Height: side, Width: side, Classes: classes, Conv1: 4, Conv2: 8, Hidden: 32}, seed)
}

// workloads builds the federation and model factory of each -dataset.
var workloads = map[string]func(o *options) (*appfl.Federated, appfl.Factory){
	"mnist": func(o *options) (*appfl.Federated, appfl.Factory) {
		return appfl.MNISTFederation(o.clients, o.train, o.test, o.cfg.Seed), cnn(1, 28, 10, o.cfg.Seed)
	},
	"cifar10": func(o *options) (*appfl.Federated, appfl.Factory) {
		return appfl.CIFAR10Federation(o.clients, o.train, o.test, o.cfg.Seed), cnn(3, 32, 10, o.cfg.Seed)
	},
	"coronahack": func(o *options) (*appfl.Federated, appfl.Factory) {
		return appfl.CoronaHackFederation(o.clients, o.train, o.test, o.cfg.Seed), cnn(1, 64, 3, o.cfg.Seed)
	},
	"femnist": func(o *options) (*appfl.Federated, appfl.Factory) {
		return appfl.FEMNISTFederation(o.clients, max(o.train/o.clients, 4), o.test, o.cfg.Seed), cnn(1, 28, 62, o.cfg.Seed)
	},
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "appfl-sim:", err)
		}
		os.Exit(2)
	}
	fed, factory := workloads[o.dataset](o)
	var inj *appfl.FaultInjector
	if o.faultPlan != "" {
		inj, err = appfl.ParseFaultPlan(o.faultPlan, fed.NumClients(), o.faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "appfl-sim:", err)
			os.Exit(2)
		}
	}
	cfg := o.cfg
	fmt.Printf("appfl-sim: %s on %s, %d clients, T=%d, L=%d, pipeline=%q, transport=%s, scheduler=%s\n",
		cfg.Algorithm, o.dataset, fed.NumClients(), cfg.Rounds, cfg.LocalSteps, cfg.Pipeline, o.transport, cfg.Scheduler)
	res, err := appfl.Run(cfg, fed, factory, appfl.RunOptions{
		Transport: core.Transport(o.transport),
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
		float64(res.UploadsB)/float64(fed.NumClients()*cfg.Rounds*8*res.ModelDim))
	if res.Stale > 0 || res.Dropped > 0 {
		fmt.Printf("staleness: %d stale updates folded, %d dropped beyond the bound\n", res.Stale, res.Dropped)
	}
	if res.Crashed > 0 || res.Rejoined > 0 || res.TimedOut > 0 {
		fmt.Printf("faults absorbed: %d presumed dead, %d rejoined, %d timed-out obligations\n",
			res.Crashed, res.Rejoined, res.TimedOut)
	}
}
