// Package tenant turns one appfl-server process into an FL-as-a-service
// host: N independent federations (tenants) multiplexed over one shared
// transport, one shared aggregation worker pool, and one journal root.
//
// Each tenant keeps its own core.Config, scheduler, aggregator,
// membership, obligation ledger, and journal directory; the only shared
// resources are the process (listener/broker, CPU) and the fold-capacity
// arbiter. Isolation is structural: tenant routing is keyed off the
// TenantID carried in wire.Join/wire.LocalUpdate and validated at the
// transport edge, so one tenant's faults, benching backoff, round
// timeouts, and quorum failures never touch another tenant's state.
// Fairness is the Arbiter's weighted fair queueing over fold admissions,
// which bounds a small tenant's round latency by the fold in flight
// rather than a big tenant's backlog.
//
// Both mechanisms are timing-only, so every tenant's trajectory is
// bit-identical (barrier schedulers) or tolerance-equal (buffered, whose
// arrival order is inherently timing-dependent) to the same config run on
// a dedicated server.
package tenant

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"repro/internal/comm"
	mpicomm "repro/internal/comm/mpi"
	"repro/internal/comm/pubsub"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/wire"
)

// Spec is one tenant: its federation, model, run configuration, and its
// slice of the host's shared resources.
type Spec struct {
	Name    string // display name ("" = tenant-<id>)
	Config  core.Config
	Fed     *dataset.Federated
	Factory nn.Factory
	// Weight is the tenant's fairness weight in the shared fold arbiter
	// (values < 1 mean 1).
	Weight int
	// Plan is the experiment plan the tenant's rpc JoinAck hands its
	// clients (zero = none; in-process clients are built from Config).
	Plan wire.Plan
	// Kills schedules in-process server deaths for this tenant's round
	// loop (see core.RunOptions.Kills). Requires Options.JournalRoot.
	Kills []core.ServerKill
}

// Options configures the host.
type Options struct {
	// Transport selects the shared backend. rpc and pubsub are
	// multi-tenant; mpi is single-tenant only and Validate rejects it for
	// more than one tenant.
	Transport core.Transport
	// JournalRoot, when non-empty, makes every tenant durable: tenant t
	// journals under JournalRoot/tenant-<t>, and a host restarted over
	// the same root recovers every tenant independently.
	JournalRoot string
	// JournalNoSync skips the journals' fsyncs (in-process kill tests only).
	JournalNoSync bool
	// CheckpointEvery compacts each tenant's journal every k commits.
	CheckpointEvery int
	// Slots is the number of concurrent fold admissions across all
	// tenants (values < 1 mean 1: strict one-fold-at-a-time fairness).
	Slots int
	// ValidateEvery/MaxParallel/Progress mirror core.RunOptions.
	ValidateEvery int
	MaxParallel   int
	Progress      io.Writer
}

// Host multiplexes the tenants of one FL-as-a-service process.
type Host struct {
	specs []Spec
	opts  Options
}

// JournalDir returns tenant t's journal directory under root.
func JournalDir(root string, t int) string {
	return filepath.Join(root, fmt.Sprintf("tenant-%d", t))
}

// NewHost validates the tenant set and returns a host ready to Run.
func NewHost(specs []Spec, opts Options) (*Host, error) {
	if len(specs) == 0 {
		return nil, errors.New("tenant: host needs at least one tenant")
	}
	if (opts.Transport == core.TransportMPI || opts.Transport == "") && len(specs) > 1 {
		return nil, fmt.Errorf("tenant: the mpi transport is single-tenant (a world is one federation's ranks, with no per-tenant views); "+
			"%d tenants need the rpc or pubsub transport", len(specs))
	}
	for t := range specs {
		s := &specs[t]
		if s.Name == "" {
			s.Name = fmt.Sprintf("tenant-%d", t)
		}
		if s.Fed == nil || s.Fed.NumClients() == 0 {
			return nil, fmt.Errorf("tenant: %s has no clients", s.Name)
		}
		if s.Factory == nil {
			return nil, fmt.Errorf("tenant: %s has no model factory", s.Name)
		}
		cfg := s.Config.WithDefaults()
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", s.Name, err)
		}
		s.Config = cfg
		if len(s.Kills) > 0 && opts.JournalRoot == "" {
			return nil, fmt.Errorf("tenant: %s schedules kills without Options.JournalRoot", s.Name)
		}
	}
	return &Host{specs: specs, opts: opts}, nil
}

// RPCSpecs returns the tenant table an rpc.Server hosting these tenants
// listens with: each tenant's roster size, rounds, model size and plan.
func (h *Host) RPCSpecs() []rpc.TenantSpec {
	tspecs := make([]rpc.TenantSpec, len(h.specs))
	for t, s := range h.specs {
		tspecs[t] = rpc.TenantSpec{
			NumClients: s.Fed.NumClients(),
			Rounds:     s.Config.Rounds,
			ModelSize:  nn.NumParams(s.Factory()),
			Plan:       s.Plan,
		}
	}
	return tspecs
}

// transports builds the shared backend and hands each tenant its server
// view and client transports. closeFn tears the shared backend down.
func (h *Host) transports() (sts []comm.ServerTransport, cts [][]comm.ClientTransport, closeFn func(), err error) {
	n := len(h.specs)
	sts = make([]comm.ServerTransport, n)
	cts = make([][]comm.ClientTransport, n)
	switch h.opts.Transport {
	case core.TransportPubSub:
		sizes := make([]int, n)
		for t, s := range h.specs {
			sizes[t] = s.Fed.NumClients()
		}
		b, servers, clients, err := pubsub.NewTenantFLBroker(sizes)
		if err != nil {
			return nil, nil, nil, err
		}
		for t := range h.specs {
			sts[t] = servers[t]
			cts[t] = make([]comm.ClientTransport, len(clients[t]))
			for i, c := range clients[t] {
				cts[t][i] = c
			}
		}
		return sts, cts, b.Close, nil
	case core.TransportRPC:
		srv, err := rpc.Listen("127.0.0.1:0", rpc.ServerConfig{Tenants: h.RPCSpecs()})
		if err != nil {
			return nil, nil, nil, err
		}
		acceptErr := make(chan error, 1)
		go func() { acceptErr <- srv.Accept() }()
		var dialWG sync.WaitGroup
		var dialMu sync.Mutex
		var dialErr error
		for t, s := range h.specs {
			cts[t] = make([]comm.ClientTransport, s.Fed.NumClients())
			for i := range cts[t] {
				dialWG.Add(1)
				go func(t, i int) {
					defer dialWG.Done()
					c, err := rpc.DialTenant(srv.Addr(), uint32(t), uint32(i),
						fmt.Sprintf("%s-client-%d", h.specs[t].Name, i))
					dialMu.Lock()
					defer dialMu.Unlock()
					if err != nil {
						dialErr = err
						return
					}
					cts[t][i] = c
				}(t, i)
			}
		}
		dialWG.Wait()
		if err := <-acceptErr; err != nil {
			srv.Close()
			return nil, nil, nil, fmt.Errorf("tenant: accepting clients: %w", err)
		}
		if dialErr != nil {
			srv.Close()
			return nil, nil, nil, fmt.Errorf("tenant: dialing clients: %w", dialErr)
		}
		for t := range h.specs {
			sts[t] = srv.Tenant(t)
		}
		return sts, cts, func() { srv.Close() }, nil
	case core.TransportMPI, "":
		s, cs := mpicomm.NewFLWorld(h.specs[0].Fed.NumClients())
		sts[0] = s
		cts[0] = make([]comm.ClientTransport, len(cs))
		for i, c := range cs {
			cts[0][i] = c
		}
		return sts, cts, func() { s.Close() }, nil
	default:
		return nil, nil, nil, fmt.Errorf("tenant: unknown transport %q", h.opts.Transport)
	}
}

// Run drives every tenant's federation concurrently over the shared
// backend and returns per-tenant results in spec order. A tenant that
// fails does not interrupt its neighbors: the survivors run to
// completion, and the joined error names each failed tenant.
func (h *Host) Run() ([]*core.Result, error) {
	sts, cts, closeFn, err := h.transports()
	if err != nil {
		return nil, err
	}
	defer closeFn()
	return h.each(func(t int, ropts core.RunOptions) (*core.Result, error) {
		s := h.specs[t]
		return core.RunWithTransport(s.Config, s.Fed, s.Factory, ropts, sts[t], cts[t])
	})
}

// Serve drives only the server half of every tenant, each over its view
// of srv — a listening rpc.Server built from RPCSpecs whose clients
// (remote processes running core.RunClient) have all joined. It is Run
// for a deployed host: same engine, same isolation, same arbiter. Besides
// the results it returns each tenant's final global weights. The caller
// owns srv.
func (h *Host) Serve(srv *rpc.Server) ([]*core.Result, [][]float64, error) {
	if srv.Tenants() != len(h.specs) {
		return nil, nil, fmt.Errorf("tenant: server hosts %d tenants, host has %d", srv.Tenants(), len(h.specs))
	}
	weights := make([][]float64, len(h.specs))
	results, err := h.each(func(t int, ropts core.RunOptions) (res *core.Result, err error) {
		s := h.specs[t]
		res, weights[t], err = core.Serve(s.Config, s.Fed, s.Factory, ropts, srv.Tenant(t))
		return res, err
	})
	return results, weights, err
}

// prefixWriter labels each progress line with its tenant (the round
// engine writes one whole line per call).
type prefixWriter struct {
	w      io.Writer
	prefix string
}

func (p prefixWriter) Write(b []byte) (int, error) {
	_, err := p.w.Write(append([]byte(p.prefix), b...))
	return len(b), err
}

// each runs every tenant concurrently with its slice of the host — its
// arbiter gate, its journal directory, its labeled progress stream — and
// collects the results in spec order.
func (h *Host) each(run func(t int, ropts core.RunOptions) (*core.Result, error)) ([]*core.Result, error) {
	weights := make([]int, len(h.specs))
	for t, s := range h.specs {
		weights[t] = s.Weight
	}
	arb := NewArbiter(h.opts.Slots, weights)

	results := make([]*core.Result, len(h.specs))
	errs := make([]error, len(h.specs))
	var wg sync.WaitGroup
	for t := range h.specs {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			s := h.specs[t]
			ropts := core.RunOptions{
				ValidateEvery: h.opts.ValidateEvery,
				MaxParallel:   h.opts.MaxParallel,
				Gate:          arb.Gate(t),
				Kills:         s.Kills,
			}
			if h.opts.Progress != nil {
				ropts.Progress = prefixWriter{h.opts.Progress, "tenant " + s.Name + "  "}
			}
			if h.opts.JournalRoot != "" {
				j, err := journal.Open(JournalDir(h.opts.JournalRoot, t))
				if err != nil {
					errs[t] = fmt.Errorf("tenant: %s: %w", s.Name, err)
					return
				}
				j.NoSync = h.opts.JournalNoSync
				defer j.Close()
				ropts.Journal = j
				ropts.CheckpointEvery = h.opts.CheckpointEvery
			}
			res, err := run(t, ropts)
			if err != nil {
				errs[t] = fmt.Errorf("tenant: %s: %w", s.Name, err)
				return
			}
			results[t] = res
		}(t)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}
