package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	appfl "repro"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/tenant"
)

// tenantSpecJSON is one tenant's entry in the -tenants config file. Zero
// fields take the same defaults as the single-tenant flags.
type tenantSpecJSON struct {
	Name      string  `json:"name"`
	Clients   int     `json:"clients"`
	Rounds    int     `json:"rounds"`
	Algorithm string  `json:"algorithm"`
	Rho       float64 `json:"rho"`
	Zeta      float64 `json:"zeta"`
	Seed      uint64  `json:"seed"`
	Pipeline  string  `json:"pipeline"`
	Train     int     `json:"train"`
	Test      int     `json:"test"`
	// Weight is the tenant's share of the host's fold capacity under
	// contention (values < 1 mean 1).
	Weight int `json:"weight"`
}

// tenantsFileJSON is the -tenants config file: one FL-as-a-service host
// serving every listed federation.
type tenantsFileJSON struct {
	// Slots is the number of folds the host admits concurrently across
	// all tenants (values < 1 mean 1: strict fair alternation).
	Slots   int              `json:"slots"`
	Tenants []tenantSpecJSON `json:"tenants"`
}

// parseTenants decodes a tenants file, rejecting unknown fields.
func parseTenants(raw []byte) (*tenantsFileJSON, error) {
	var file tenantsFileJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, err
	}
	if len(file.Tenants) == 0 {
		return nil, fmt.Errorf("no tenants listed")
	}
	return &file, nil
}

// spec builds tenant i's host entry: its validated Config, its workload,
// and the plan its clients will be handed.
func (s tenantSpecJSON) spec(i int, journaled bool) (tenant.Spec, error) {
	if s.Name == "" {
		s.Name = fmt.Sprintf("tenant-%d", i)
	}
	if s.Clients < 0 {
		return tenant.Spec{}, fmt.Errorf("tenant %s: clients must be at least 1, got %d", s.Name, s.Clients)
	}
	if s.Clients == 0 {
		s.Clients = 2
	}
	if s.Rounds == 0 {
		s.Rounds = 5
	}
	if s.Train == 0 {
		s.Train = 960
	}
	if s.Test == 0 {
		s.Test = 240
	}
	cfg := appfl.Config{
		Algorithm: s.Algorithm, Rounds: s.Rounds, Rho: s.Rho,
		Zeta: s.Zeta, Seed: s.Seed, Pipeline: s.Pipeline,
	}.WithDefaults()
	err := cfg.Validate()
	if err == nil && journaled {
		err = core.ValidateJournalConfig(cfg)
	}
	if err != nil {
		return tenant.Spec{}, fmt.Errorf("tenant %s: %w", s.Name, err)
	}
	plan := deploy.PlanOf(cfg, s.Train, s.Test)
	fed, factory := deploy.Workload(s.Clients, plan)
	return tenant.Spec{Name: s.Name, Config: cfg, Fed: fed, Factory: factory, Weight: s.Weight, Plan: plan}, nil
}

// serveTenants is appfl-server's -tenants mode: one process, one
// listening socket, N independent federations, each running core.Serve
// over its view of the shared server (tenant.Host.Serve) with its own
// journal directory under -journal and its slice of the shared fold
// capacity; clients address their tenant with appfl-client -tenant.
func serveTenants(o *options, out io.Writer) error {
	raw, err := os.ReadFile(o.tenantsPath)
	if err != nil {
		return err
	}
	file, err := parseTenants(raw)
	if err != nil {
		return usageError{fmt.Errorf("parsing %s: %w", o.tenantsPath, err)}
	}
	specs := make([]tenant.Spec, len(file.Tenants))
	total := 0
	for i, s := range file.Tenants {
		if specs[i], err = s.spec(i, o.journalDir != ""); err != nil {
			return usageError{err}
		}
		total += specs[i].Fed.NumClients()
	}
	host, err := tenant.NewHost(specs, tenant.Options{
		Transport:       core.TransportRPC,
		JournalRoot:     o.journalDir,
		CheckpointEvery: o.checkpointEvery,
		Slots:           file.Slots,
		Progress:        out,
	})
	if err != nil {
		return err
	}
	srv, err := rpc.Listen(o.addr, rpc.ServerConfig{Tenants: host.RPCSpecs(), AcceptTimeout: o.acceptTimeout})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(out, "appfl-server: listening on %s for %d tenants (%d clients total)\n", srv.Addr(), len(specs), total)
	if err := srv.Accept(); err != nil {
		return err
	}
	fmt.Fprintln(out, "appfl-server: all clients of all tenants joined")
	_, weights, err := host.Serve(srv)
	if err != nil {
		return err
	}
	if o.save != "" {
		for t, w := range weights {
			if err := saveModel(fmt.Sprintf("%s.tenant-%d", o.save, t), specs[t].Factory, w, out); err != nil {
				return err
			}
		}
	}
	snap := srv.Stats()
	fmt.Fprintf(out, "appfl-server: done; sent %d B, received %d B\n", snap.BytesSent, snap.BytesRecv)
	return nil
}
