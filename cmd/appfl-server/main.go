// Command appfl-server runs the federated-learning server of a real
// cross-silo deployment over TCP RPC (the gRPC-substitute transport). It
// is flag parsing around core.Serve — the round engine the simulator and
// every test run — so scheduling, quorum, journaling and recovery here
// are the tested ones. Start it first, then launch one appfl-client per
// silo: clients take the federation's plan (algorithm, hyperparameters,
// seed, pipeline) from the server's JoinAck, so they need only an address
// and an id. The plan's seed is how all parties agree on the initial
// model, exactly as APPFL distributes a common starting checkpoint.
//
// Example (server plus two local clients):
//
//	appfl-server -addr :9000 -clients 2 -rounds 5 &
//	appfl-client -addr localhost:9000 -id 0 &
//	appfl-client -addr localhost:9000 -id 1
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	appfl "repro"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/wire"
)

// options is the parsed command line.
type options struct {
	addr            string
	acceptTimeout   time.Duration
	journalDir      string
	checkpointEvery int
	save            string
	tenantsPath     string

	// The single federation of the flag-configured mode.
	clients, train, test int
	cfg                  appfl.Config
}

// plan is what the flag-configured federation hands its clients.
func (o *options) plan() wire.Plan { return deploy.PlanOf(o.cfg, o.train, o.test) }

// hostFlags are the flags that apply in -tenants mode; every other one
// configures the single federation and belongs in the tenants file there.
var hostFlags = map[string]bool{"tenants": true, "addr": true, "accept-timeout": true,
	"journal": true, "checkpoint-every": true, "save": true}

// flagSet declares every flag, bound to the field of o it configures.
func flagSet(o *options) *flag.FlagSet {
	c := &o.cfg
	fs := flag.NewFlagSet("appfl-server", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":9000", "listen address")
	fs.IntVar(&o.clients, "clients", 2, "number of clients to wait for")
	fs.IntVar(&c.Rounds, "rounds", 5, "communication rounds")
	fs.StringVar(&c.Algorithm, "algorithm", "iiadmm", "fedavg | iceadmm | iiadmm")
	fs.Float64Var(&c.Rho, "rho", 2, "IADMM penalty rho")
	fs.Float64Var(&c.Zeta, "zeta", 14, "IADMM proximity zeta")
	fs.IntVar(&o.train, "train", 960, "total training samples of the shared corpus")
	fs.IntVar(&o.test, "test", 240, "server-side validation samples")
	fs.Uint64Var(&c.Seed, "seed", 1, "federation seed: data split and initial model (handed to the clients)")
	fs.StringVar(&c.Pipeline, "pipeline", "", "update-pipeline spec, e.g. clip:1,laplace:0.5,topk:0.1 (handed to the clients)")
	fs.BoolVar(&c.DownlinkF16, "downlink-f16", false, "broadcast the global model as float16 (~4x downlink cut)")
	fs.DurationVar(&o.acceptTimeout, "accept-timeout", 2*time.Minute, "join deadline")
	fs.IntVar(&c.StreamChunk, "chunk", 0, "clients stream uplinks as chunks of this many coordinates, acked once (0 = one frame each); the fedavg server folds either in windows (handed to the clients)")
	fs.Float64Var(&c.SubsetFrac, "subset", 0, "accept LoRA-style partial uploads covering this coordinate fraction (0 = dense; handed to the clients)")
	fs.StringVar(&o.journalDir, "journal", "", "write-ahead round journal directory: crash-recoverable rounds (fedavg only, no -chunk)")
	fs.IntVar(&o.checkpointEvery, "checkpoint-every", 10, "compact the journal every k committed rounds (0 = never)")
	fs.StringVar(&o.save, "save", "", "write the final model checkpoint here (atomic tmp+fsync+rename; <path>.tenant-<t> per tenant in -tenants mode)")
	fs.StringVar(&o.tenantsPath, "tenants", "", "multi-tenant host mode: JSON config listing the federations to serve (see docs/operations.md); incompatible with per-federation flags")
	return fs
}

// usageError is a refusal of the tenants file, made before anything
// listens: main exits 2 for it, as for a refused command line, and 1 for a
// failed run.
type usageError struct{ error }

// parseFlags turns the command line into validated options.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flagSet(o)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.tenantsPath != "" {
		// Tenant mode: every per-federation knob comes from the config file.
		// Reject silently-ignored flags loudly.
		var stray error
		fs.Visit(func(f *flag.Flag) {
			if !hostFlags[f.Name] && stray == nil {
				stray = fmt.Errorf("-%s does not apply in -tenants mode; set per-tenant options in %s", f.Name, o.tenantsPath)
			}
		})
		return o, stray
	}
	if o.clients < 1 {
		return nil, fmt.Errorf("-clients must be at least 1, got %d", o.clients)
	}
	o.cfg = o.cfg.WithDefaults()
	if err := o.cfg.Validate(); err != nil {
		return nil, err
	}
	if o.journalDir != "" {
		if err := core.ValidateJournalConfig(o.cfg); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "appfl-server:", err)
		}
		os.Exit(2)
	}
	if o.tenantsPath != "" {
		err = serveTenants(o, os.Stdout)
	} else {
		err = serveOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "appfl-server:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// serveOne hosts the single federation the flags describe.
func serveOne(o *options, out io.Writer) error {
	plan := o.plan()
	fed, factory := deploy.Workload(o.clients, plan)
	ropts := core.RunOptions{Progress: out, CheckpointEvery: o.checkpointEvery}
	if o.journalDir != "" {
		// Durable state: a non-empty journal means this process is a
		// restart, and Serve resumes the run where the last one died.
		jnl, err := journal.Open(o.journalDir)
		if err != nil {
			return err
		}
		defer jnl.Close()
		ropts.Journal = jnl
	}
	dim := nn.NumParams(factory())
	srv, err := rpc.Listen(o.addr, rpc.ServerConfig{
		NumClients:    o.clients,
		Rounds:        o.cfg.Rounds,
		ModelSize:     dim,
		Plan:          plan,
		AcceptTimeout: o.acceptTimeout,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(out, "appfl-server: listening on %s for %d clients (%s, T=%d, dim=%d)\n",
		srv.Addr(), o.clients, o.cfg.Algorithm, o.cfg.Rounds, dim)
	if err := srv.Accept(); err != nil {
		return err
	}
	fmt.Fprintln(out, "appfl-server: all clients joined")
	res, weights, err := core.Serve(o.cfg, fed, factory, ropts, srv)
	if err != nil {
		return err
	}
	if o.save != "" {
		if err := saveModel(o.save, factory, weights, out); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "appfl-server: done; sent %d B, received %d B", res.DownloadsB, res.UploadsB)
	if ropts.Journal != nil {
		s := ropts.Journal.Stats()
		fmt.Fprintf(out, "; journal %d frames, %d B, %d fsyncs, %d checkpoints; append %.3fs, fsync %.3fs, checkpoint %.3fs",
			s.Frames, s.Bytes, s.Fsyncs, s.Checkpoints, s.AppendSec, s.FsyncSec, s.CheckpointSec)
	}
	fmt.Fprintln(out)
	return nil
}

// saveModel writes the final global weights as a model checkpoint.
func saveModel(path string, factory appfl.Factory, weights []float64, out io.Writer) error {
	model := factory()
	nn.SetParams(model, weights)
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, model); err != nil {
		return err
	}
	if err := journal.AtomicWriteFile(path, 0o644, buf.Bytes()); err != nil {
		return err
	}
	fmt.Fprintf(out, "appfl-server: model checkpoint saved to %s\n", path)
	return nil
}
