package tenant

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Host test geometry: two small federations, big enough that quorum and
// buffered releases actually exercise the machinery.
const (
	ttClients  = 6
	ttRounds   = 4
	ttWatchdog = 120 * time.Second
)

func ttFed(dataSeed uint64) *dataset.Federated {
	tr, te := dataset.MNIST(dataset.SynthConfig{Train: 72, Test: 24, Seed: dataSeed})
	return &dataset.Federated{Clients: dataset.PartitionIID(tr, ttClients, rng.New(dataSeed+1)), Test: te}
}

func ttFactory() nn.Module { return nn.NewMLP(28*28, []int{4}, 10, rng.New(9)) }

func syncCfg() core.Config {
	return core.Config{
		Algorithm:  core.AlgoFedAvg,
		Scheduler:  core.SchedSyncAll,
		Rounds:     ttRounds,
		LocalSteps: 1,
		BatchSize:  16,
		Seed:       9,
	}
}

func bufCfg() core.Config {
	cfg := syncCfg()
	cfg.Scheduler = core.SchedBuffered
	// K = P: every release folds the whole federation, so only the float
	// fold order is timing-dependent, keeping the buffered trajectory
	// tolerance-comparable across hosts.
	cfg.BufferK = ttClients
	return cfg
}

// hostRun drives a Host under a deadlock watchdog.
func hostRun(t *testing.T, h *Host) ([]*core.Result, error) {
	t.Helper()
	type out struct {
		res []*core.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := h.Run()
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(ttWatchdog):
		t.Fatalf("deadlock: host run did not finish within %v", ttWatchdog)
		return nil, nil
	}
}

// dedicatedRun executes one tenant's config on its own dedicated server.
func dedicatedRun(t *testing.T, cfg core.Config, dataSeed uint64, opts core.RunOptions) *core.Result {
	t.Helper()
	type out struct {
		res *core.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := core.Run(cfg, ttFed(dataSeed), ttFactory, opts)
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("dedicated run: %v", o.err)
		}
		return o.res
	case <-time.After(ttWatchdog):
		t.Fatalf("deadlock: dedicated run did not finish within %v", ttWatchdog)
		return nil
	}
}

func assertBitIdentical(t *testing.T, got, want *core.Result, label string) {
	t.Helper()
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("%s: %d rounds, dedicated run had %d", label, len(got.Rounds), len(want.Rounds))
	}
	for i := range want.Rounds {
		if got.Rounds[i].TestLoss != want.Rounds[i].TestLoss {
			t.Fatalf("%s: round %d loss %v differs from dedicated %v",
				label, i+1, got.Rounds[i].TestLoss, want.Rounds[i].TestLoss)
		}
		if got.Rounds[i].CohortSize != want.Rounds[i].CohortSize {
			t.Fatalf("%s: round %d cohort %d differs from dedicated %d",
				label, i+1, got.Rounds[i].CohortSize, want.Rounds[i].CohortSize)
		}
	}
}

// TestTenantHostBitIdentical is the tentpole acceptance anchor: a syncall
// tenant and a buffered tenant share one server process, and each
// reproduces its dedicated-server run — bit-identically for the barrier
// scheduler, within a float-fold-order tolerance for the buffered one.
func TestTenantHostBitIdentical(t *testing.T) {
	for _, tr := range []core.Transport{core.TransportRPC, core.TransportPubSub} {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			t.Parallel()
			baseSync := dedicatedRun(t, syncCfg(), 5, core.RunOptions{Transport: tr})
			baseBuf := dedicatedRun(t, bufCfg(), 11, core.RunOptions{Transport: tr})

			h, err := NewHost([]Spec{
				{Name: "sync", Config: syncCfg(), Fed: ttFed(5), Factory: ttFactory},
				{Name: "buf", Config: bufCfg(), Fed: ttFed(11), Factory: ttFactory},
			}, Options{Transport: tr})
			if err != nil {
				t.Fatalf("NewHost: %v", err)
			}
			results, err := hostRun(t, h)
			if err != nil {
				t.Fatalf("host run: %v", err)
			}
			assertBitIdentical(t, results[0], baseSync, "sync tenant")
			if len(results[1].Rounds) != len(baseBuf.Rounds) {
				t.Fatalf("buffered tenant: %d releases, dedicated had %d",
					len(results[1].Rounds), len(baseBuf.Rounds))
			}
			// The buffered trajectory is arrival-order-dependent even on a
			// dedicated server (a fast client can fill two slots of one
			// release), so cross-host equality is a convergence band around
			// the dedicated run, not near-bit-identity; the strict claims are
			// the release count above and the sync tenant's bit identity.
			if d := math.Abs(results[1].FinalLoss - baseBuf.FinalLoss); d > 0.5 {
				t.Fatalf("buffered tenant final loss %v vs dedicated %v (|Δ|=%v exceeds tolerance)",
					results[1].FinalLoss, baseBuf.FinalLoss, d)
			}
		})
	}
}

// TestTenantHostRecovery kills the shared server's per-tenant round loops
// mid-round (kill -9 semantics) and checks each tenant recovers from its
// own journal directory independently: the syncall tenant's trajectory
// stays bit-identical to its kill-free dedicated run, the buffered tenant
// completes every release, and RecoverHost replays both journals.
func TestTenantHostRecovery(t *testing.T) {
	baseSync := dedicatedRun(t, syncCfg(), 5, core.RunOptions{Transport: core.TransportRPC})

	root := t.TempDir()
	h, err := NewHost([]Spec{
		{
			Name: "sync", Config: syncCfg(), Fed: ttFed(5), Factory: ttFactory,
			Kills: []core.ServerKill{
				{Round: 2, Window: core.KillBetweenRounds},
				{Round: 3, Window: core.KillAfterDispatch},
				{Round: 4, Window: core.KillBeforeCommit},
			},
		},
		{
			Name: "buf", Config: bufCfg(), Fed: ttFed(11), Factory: ttFactory,
			Kills: []core.ServerKill{
				{Round: 2, Window: core.KillAfterDispatch},
				{Round: 3, Window: core.KillBeforeCommit},
			},
		},
	}, Options{
		Transport:       core.TransportRPC,
		JournalRoot:     root,
		JournalNoSync:   true,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	results, err := hostRun(t, h)
	if err != nil {
		t.Fatalf("host run: %v", err)
	}
	for i, want := range []int{3, 2} {
		soak := results[i].Soak
		if soak == nil {
			t.Fatalf("tenant %d: journaled run reported no SoakStats", i)
		}
		if soak.Kills != want || soak.Recoveries != want {
			t.Fatalf("tenant %d: kills %d recoveries %d, want %d each", i, soak.Kills, soak.Recoveries, want)
		}
	}
	// Recovery neither lost nor double-counted an update in either tenant.
	assertBitIdentical(t, results[0], baseSync, "sync tenant after kills")
	if len(results[1].Rounds) != ttRounds {
		t.Fatalf("buffered tenant completed %d releases, want %d", len(results[1].Rounds), ttRounds)
	}
	for i, rs := range results[1].Rounds {
		if rs.Round != i+1 {
			t.Fatalf("buffered tenant release %d recorded as %d", i+1, rs.Round)
		}
		if math.IsNaN(rs.TestLoss) || math.IsInf(rs.TestLoss, 0) {
			t.Fatalf("buffered tenant release %d loss %v", rs.Round, rs.TestLoss)
		}
	}
	// The journal root holds one independently replayable journal per
	// tenant, each carrying that tenant's full committed history.
	recs, err := journal.RecoverHost(root)
	if err != nil {
		t.Fatalf("RecoverHost: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("RecoverHost found %d tenants, want 2", len(recs))
	}
	for id, rec := range recs {
		if rec.Empty() {
			t.Fatalf("tenant %d recovered empty journal after a journaled run", id)
		}
	}
}

// TestTenantFaultIsolation runs one tenant whose configuration fails at
// run time next to a healthy one: the failure is attributed to the broken
// tenant by name, and the healthy tenant's trajectory is untouched —
// bit-identical to its dedicated run.
func TestTenantFaultIsolation(t *testing.T) {
	base := dedicatedRun(t, syncCfg(), 5, core.RunOptions{Transport: core.TransportRPC})

	broken := syncCfg()
	// StreamChunk and journaling cannot combine; the broken tenant dies in
	// its own run-time validation, after transports are up.
	broken.StreamChunk = 128
	h, err := NewHost([]Spec{
		{Name: "broken", Config: broken, Fed: ttFed(11), Factory: ttFactory},
		{Name: "healthy", Config: syncCfg(), Fed: ttFed(5), Factory: ttFactory},
	}, Options{
		Transport:     core.TransportRPC,
		JournalRoot:   t.TempDir(),
		JournalNoSync: true,
	})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	results, err := hostRun(t, h)
	if err == nil {
		t.Fatal("host run with a broken tenant reported no error")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Fatalf("error %q does not name the broken tenant", err)
	}
	if strings.Contains(err.Error(), "healthy") {
		t.Fatalf("error %q blames the healthy tenant", err)
	}
	if results[0] != nil {
		t.Fatal("broken tenant produced a result")
	}
	if results[1] == nil {
		t.Fatal("healthy tenant produced no result")
	}
	assertBitIdentical(t, results[1], base, "healthy tenant")
}

// TestHostRejectsMultiTenantMPI pins the loud validation error: an mpi
// world is one federation's ranks, with no per-tenant views to route a
// frame's TenantID to, so it stays single-tenant.
func TestHostRejectsMultiTenantMPI(t *testing.T) {
	specs := []Spec{
		{Config: syncCfg(), Fed: ttFed(5), Factory: ttFactory},
		{Config: syncCfg(), Fed: ttFed(11), Factory: ttFactory},
	}
	if _, err := NewHost(specs, Options{Transport: core.TransportMPI}); err == nil ||
		!strings.Contains(err.Error(), "single-tenant") {
		t.Fatalf("multi-tenant mpi host accepted (err = %v)", err)
	}
	// One tenant over mpi is the degenerate single-tenant host and works.
	h, err := NewHost(specs[:1], Options{Transport: core.TransportMPI})
	if err != nil {
		t.Fatalf("single-tenant mpi host rejected: %v", err)
	}
	results, err := hostRun(t, h)
	if err != nil {
		t.Fatalf("single-tenant mpi host run: %v", err)
	}
	if len(results[0].Rounds) != ttRounds {
		t.Fatalf("single-tenant mpi host completed %d rounds, want %d", len(results[0].Rounds), ttRounds)
	}
}

// TestHostValidation covers the remaining NewHost rejections.
func TestHostValidation(t *testing.T) {
	if _, err := NewHost(nil, Options{}); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	if _, err := NewHost([]Spec{{Config: syncCfg(), Fed: ttFed(5), Factory: ttFactory,
		Kills: []core.ServerKill{{Round: 1}}}}, Options{Transport: core.TransportRPC}); err == nil {
		t.Fatal("kills without a journal root accepted")
	}
	bad := syncCfg()
	bad.Rounds = -1
	if _, err := NewHost([]Spec{{Config: bad, Fed: ttFed(5), Factory: ttFactory}},
		Options{Transport: core.TransportRPC}); err == nil {
		t.Fatal("invalid tenant config accepted")
	}
}
