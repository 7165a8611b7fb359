package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// Soak harness: journaled runs with scripted in-process kill -9s. The
// server "brain" (scheduler/aggregator/membership) is destroyed mid-round
// with no cleanup and rebuilt from the journal; the transports survive,
// standing in for the listening socket plus session resumption. The
// acceptance invariants: monotone round progression, no double-counted
// update (the barrier trajectories are bit-identical to the kill-free
// run, which a duplicate fold would break), and convergence.

// soakJournal opens a NoSync journal in a fresh temp dir: the soak
// simulates process death, not power loss, so the page cache survives.
func soakJournal(t *testing.T) *journal.Journal {
	t.Helper()
	j, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	j.NoSync = true
	t.Cleanup(func() { j.Close() })
	return j
}

// runSoakScenario executes one journaled run under the deadlock watchdog.
func runSoakScenario(t *testing.T, cfg Config, opts RunOptions) *Result {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := Run(cfg, scenFed(), scenFactory, opts)
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("soak run: %v", o.err)
		}
		return o.res
	case <-time.After(scenWatchdog):
		t.Fatalf("deadlock: soak %s/%s with %d kills did not finish within %v",
			cfg.Scheduler, opts.Transport, len(opts.Kills), scenWatchdog)
		return nil
	}
}

// cyclingKills schedules one kill every `every` rounds, cycling through
// the three kill windows so a soak exercises every recovery path.
func cyclingKills(rounds, every int) []ServerKill {
	var kills []ServerKill
	i := 0
	for r := every; r < rounds; r += every {
		kills = append(kills, ServerKill{Round: r, Window: KillWindow(i % int(numKillWindows))})
		i++
	}
	return kills
}

// assertMonotoneRounds pins the no-double-count shape: rounds 1..n each
// recorded exactly once, in order, with finite losses.
func assertMonotoneRounds(t *testing.T, res *Result, rounds int) {
	t.Helper()
	if len(res.Rounds) != rounds {
		t.Fatalf("recorded %d rounds, want %d", len(res.Rounds), rounds)
	}
	for i, rs := range res.Rounds {
		if rs.Round != i+1 {
			t.Fatalf("round %d recorded as %d: progression not monotone", i+1, rs.Round)
		}
		if math.IsNaN(rs.TestLoss) || math.IsInf(rs.TestLoss, 0) {
			t.Fatalf("round %d loss %v", rs.Round, rs.TestLoss)
		}
	}
}

func assertSoakStats(t *testing.T, res *Result, wantKills int) {
	t.Helper()
	s := res.Soak
	if s == nil {
		t.Fatal("journaled run reported no SoakStats")
	}
	if s.Kills != wantKills {
		t.Fatalf("kills %d, want %d", s.Kills, wantKills)
	}
	if s.Recoveries != wantKills {
		t.Fatalf("recoveries %d, want %d", s.Recoveries, wantKills)
	}
	if len(s.RecoverySec) != wantKills {
		t.Fatalf("recovery timings %d, want %d", len(s.RecoverySec), wantKills)
	}
	logSoakStats(t, s)
}

// logSoakStats emits the recovery figures in a grep-stable form — the CI
// soak-smoke job tees "soak-stats:" lines into its step summary.
func logSoakStats(t *testing.T, s *SoakStats) {
	t.Helper()
	h, err := metrics.NewHistogram(1e-6, 60, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range s.RecoverySec {
		h.Add(sec)
	}
	t.Logf("soak-stats: kills=%d recoveries=%d replayed_records=%d recovery_p95_ms=%.2f",
		s.Kills, s.Recoveries, s.ReplayedRecords, h.Quantile(0.95)*1e3)
}

// TestSoakBarrierKillsBitIdentical kills the server in every window across
// a barrier run and asserts the per-round loss trajectory is bit-identical
// to the kill-free run: recovery neither loses nor double-counts a single
// client update, in any crash window, on either scheduler or any
// transport. Every row windows: the admits are written window by window
// as the inbox cuts the uploads, and a killed incarnation leaves windowed
// mode on for the next. The -short grid keeps the all-client rows of mpi
// and pubsub.
func TestSoakBarrierKillsBitIdentical(t *testing.T) {
	const rounds = 8
	for _, sched := range []string{SchedSyncAll, SchedSampled} {
		for _, tr := range []Transport{TransportMPI, TransportPubSub, TransportRPC} {
			if testing.Short() && (tr == TransportRPC || sched != SchedSyncAll) {
				continue
			}
			sched, tr := sched, tr
			t.Run(sched+"/"+string(tr), func(t *testing.T) {
				t.Parallel()
				cfg := scenConfig(sched, "")
				cfg.Rounds = rounds
				base := runSoakScenario(t, cfg, RunOptions{Transport: tr})
				kills := cyclingKills(rounds, 2)
				res := runSoakScenario(t, cfg, RunOptions{
					Transport:       tr,
					Journal:         soakJournal(t),
					CheckpointEvery: 3,
					Kills:           kills,
				})
				assertMonotoneRounds(t, res, rounds)
				assertSoakStats(t, res, len(kills))
				if res.Soak.ReplayedRecords == 0 {
					t.Fatal("recoveries replayed no journal records")
				}
				for i := range base.Rounds {
					if res.Rounds[i].TestLoss != base.Rounds[i].TestLoss {
						t.Fatalf("round %d loss %v differs from kill-free %v",
							i+1, res.Rounds[i].TestLoss, base.Rounds[i].TestLoss)
					}
					if res.Rounds[i].CohortSize != base.Rounds[i].CohortSize {
						t.Fatalf("round %d cohort %d differs from kill-free %d",
							i+1, res.Rounds[i].CohortSize, base.Rounds[i].CohortSize)
					}
				}
			})
		}
	}
}

// TestSoakBufferedKillRecovers kills the buffered server in every window.
// Buffered releases are arrival-ordered (timing-dependent even without
// kills), so the invariants are structural: monotone releases, all kills
// recovered, and convergence within the buffered tolerance.
func TestSoakBufferedKillRecovers(t *testing.T) {
	for _, tr := range []Transport{TransportMPI, TransportRPC} {
		if testing.Short() && tr != TransportMPI {
			continue
		}
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			t.Parallel()
			cfg := scenConfig(SchedBuffered, "")
			cfg.Rounds = 6
			kills := []ServerKill{
				{Round: 2, Window: KillBetweenRounds},
				{Round: 3, Window: KillAfterDispatch},
				{Round: 4, Window: KillBeforeCommit},
			}
			res := runSoakScenario(t, cfg, RunOptions{
				Transport:       tr,
				Journal:         soakJournal(t),
				CheckpointEvery: 2,
				Kills:           kills,
			})
			assertMonotoneRounds(t, res, cfg.Rounds)
			assertSoakStats(t, res, len(kills))
			base := baselineLoss(t, SchedBuffered, "identity", "")
			if res.FinalLoss > base+2.5 {
				t.Fatalf("final loss %.4f vs kill-free %.4f exceeds tolerance", res.FinalLoss, base)
			}
		})
	}
}

// TestSoakKillAfterBackgroundCheckpoint checkpoints after every commit, so
// each checkpoint is still running behind the next dispatch when the loop
// moves on, and kills the server right after checkpoint rounds in every
// window. The barrier trajectory stays bit-identical to the kill-free run
// and the buffered one converges; under -race the detector also watches
// that nothing writes the model a checkpoint is reading before the join.
func TestSoakKillAfterBackgroundCheckpoint(t *testing.T) {
	kills := []ServerKill{
		{Round: 2, Window: KillBetweenRounds},
		{Round: 3, Window: KillAfterDispatch},
		{Round: 4, Window: KillBeforeCommit},
		{Round: 6, Window: KillBetweenRounds},
	}
	for _, tr := range []Transport{TransportMPI, TransportRPC} {
		if testing.Short() && tr != TransportMPI {
			continue
		}
		tr := tr
		t.Run("syncall/"+string(tr), func(t *testing.T) {
			t.Parallel()
			cfg := scenConfig(SchedSyncAll, "")
			cfg.Rounds = 6
			base := runSoakScenario(t, cfg, RunOptions{Transport: tr})
			res := runSoakScenario(t, cfg, RunOptions{
				Transport:       tr,
				Journal:         soakJournal(t),
				CheckpointEvery: 1,
				Kills:           kills,
			})
			assertMonotoneRounds(t, res, cfg.Rounds)
			assertSoakStats(t, res, len(kills))
			for i := range base.Rounds {
				if res.Rounds[i].TestLoss != base.Rounds[i].TestLoss {
					t.Fatalf("round %d loss %v differs from kill-free %v",
						i+1, res.Rounds[i].TestLoss, base.Rounds[i].TestLoss)
				}
			}
		})
	}
	t.Run("buffered", func(t *testing.T) {
		t.Parallel()
		cfg := scenConfig(SchedBuffered, "")
		cfg.Rounds = 6
		res := runSoakScenario(t, cfg, RunOptions{
			Transport:       TransportMPI,
			Journal:         soakJournal(t),
			CheckpointEvery: 1,
			Kills:           kills,
		})
		assertMonotoneRounds(t, res, cfg.Rounds)
		assertSoakStats(t, res, len(kills))
		base := baselineLoss(t, SchedBuffered, "identity", "")
		if res.FinalLoss > base+2.5 {
			t.Fatalf("final loss %.4f vs kill-free %.4f exceeds tolerance", res.FinalLoss, base)
		}
	})
}

// TestSoakCascadingKills kills the recovery itself: an after-dispatch kill
// at round 2, a before-commit kill during the resumed completion of round
// 2, and a between-rounds kill at round 3 — three recoveries back to
// back, still bit-identical.
func TestSoakCascadingKills(t *testing.T) {
	cfg := scenConfig(SchedSyncAll, "")
	cfg.Rounds = 4
	base := runSoakScenario(t, cfg, RunOptions{Transport: TransportMPI})
	kills := []ServerKill{
		{Round: 2, Window: KillAfterDispatch},
		{Round: 2, Window: KillBeforeCommit},
		{Round: 3, Window: KillBetweenRounds, Gap: 1},
	}
	res := runSoakScenario(t, cfg, RunOptions{
		Transport: TransportMPI,
		Journal:   soakJournal(t),
		Kills:     kills,
	})
	assertMonotoneRounds(t, res, cfg.Rounds)
	assertSoakStats(t, res, len(kills))
	for i := range base.Rounds {
		if res.Rounds[i].TestLoss != base.Rounds[i].TestLoss {
			t.Fatalf("round %d loss %v differs from kill-free %v",
				i+1, res.Rounds[i].TestLoss, base.Rounds[i].TestLoss)
		}
	}
}

// TestSoakFaultPlanKillServer drives the kills through the fault-plan
// grammar (killserver:@R[+K]) instead of explicit RunOptions.Kills,
// exercising the injector wiring and the downtime gap.
func TestSoakFaultPlanKillServer(t *testing.T) {
	plan, err := faults.Parse("killserver:@2+1,killserver:@4")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(plan, scenClients, scenFaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenConfig(SchedSyncAll, "")
	cfg.Rounds = 5
	base := runSoakScenario(t, cfg, RunOptions{Transport: TransportMPI})
	res := runSoakScenario(t, cfg, RunOptions{
		Transport: TransportMPI,
		Journal:   soakJournal(t),
		Faults:    inj,
	})
	assertMonotoneRounds(t, res, cfg.Rounds)
	assertSoakStats(t, res, 2)
	if res.FinalLoss != base.FinalLoss {
		t.Fatalf("final loss %v differs from kill-free %v", res.FinalLoss, base.FinalLoss)
	}
}

// TestSoakColdStartResume completes a short journaled run, then opens the
// same journal with a higher round budget: the second Run must resume at
// the next uncommitted round rather than restart from round 1.
func TestSoakColdStartResume(t *testing.T) {
	dir := t.TempDir()
	cfg := scenConfig(SchedSyncAll, "")
	cfg.Rounds = 2
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.NoSync = true
	first := runSoakScenario(t, cfg, RunOptions{Transport: TransportMPI, Journal: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2.NoSync = true
	defer j2.Close()
	cfg.Rounds = 4
	second := runSoakScenario(t, cfg, RunOptions{Transport: TransportMPI, Journal: j2})
	if len(second.Rounds) != 2 || second.Rounds[0].Round != 3 || second.Rounds[1].Round != 4 {
		t.Fatalf("cold restart replayed rounds %+v, want rounds 3 and 4", second.Rounds)
	}
	if second.Soak.Recoveries != 1 || second.Soak.ReplayedRecords == 0 {
		t.Fatalf("cold restart soak stats %+v", second.Soak)
	}
	if math.IsNaN(second.FinalLoss) || math.IsInf(second.FinalLoss, 0) {
		t.Fatalf("resumed final loss %v", second.FinalLoss)
	}
	_ = first
}

// TestSoakKillsRequireJournal pins the guard: scripted kills without a
// journal are rejected up front, not discovered as a lost run.
func TestSoakKillsRequireJournal(t *testing.T) {
	cfg := scenConfig(SchedSyncAll, "")
	_, err := Run(cfg, scenFed(), scenFactory, RunOptions{
		Transport: TransportMPI,
		Kills:     []ServerKill{{Round: 1}},
	})
	if err == nil {
		t.Fatal("kills without a journal accepted")
	}
}

// TestSoakRejectsUnjournalableConfigs pins validateJournalConfig at the
// Run boundary for each excluded feature.
func TestSoakRejectsUnjournalableConfigs(t *testing.T) {
	mutate := map[string]func(*Config){
		"admm":   func(c *Config) { c.Algorithm = AlgoIIADMM },
		"stream": func(c *Config) { c.StreamChunk = 512 },
	}
	for name, mut := range mutate {
		cfg := scenConfig(SchedSyncAll, "")
		mut(&cfg)
		_, err := Run(cfg, scenFed(), scenFactory, RunOptions{Transport: TransportMPI, Journal: soakJournal(t)})
		if err == nil {
			t.Errorf("%s: unjournalable config accepted", name)
		}
	}
}

// TestSoakLongHaul is the 50-round acceptance soak: a kill every other
// round (24 kills, every window eight times) across the full run, barrier
// bit-identity and buffered convergence both holding at the end. Skipped
// in -short; the smoke grid above covers the same paths.
func TestSoakLongHaul(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak: run without -short")
	}
	const rounds = 50
	kills := cyclingKills(rounds, 2)
	t.Run("syncall", func(t *testing.T) {
		t.Parallel()
		cfg := scenConfig(SchedSyncAll, "")
		cfg.Rounds = rounds
		base := runSoakScenario(t, cfg, RunOptions{Transport: TransportMPI, ValidateEvery: 5})
		res := runSoakScenario(t, cfg, RunOptions{
			Transport:       TransportMPI,
			ValidateEvery:   5,
			Journal:         soakJournal(t),
			CheckpointEvery: 5,
			Kills:           kills,
		})
		assertMonotoneRounds(t, res, rounds)
		assertSoakStats(t, res, len(kills))
		for i := range base.Rounds {
			if res.Rounds[i].TestLoss != base.Rounds[i].TestLoss {
				t.Fatalf("round %d loss %v differs from kill-free %v",
					i+1, res.Rounds[i].TestLoss, base.Rounds[i].TestLoss)
			}
		}
	})
	t.Run("buffered", func(t *testing.T) {
		t.Parallel()
		cfg := scenConfig(SchedBuffered, "")
		cfg.Rounds = rounds
		base := runSoakScenario(t, cfg, RunOptions{Transport: TransportMPI, ValidateEvery: 5})
		res := runSoakScenario(t, cfg, RunOptions{
			Transport:       TransportMPI,
			ValidateEvery:   5,
			Journal:         soakJournal(t),
			CheckpointEvery: 5,
			Kills:           kills,
		})
		assertMonotoneRounds(t, res, rounds)
		assertSoakStats(t, res, len(kills))
		if res.FinalLoss > base.FinalLoss+2.5 {
			t.Fatalf("final loss %.4f vs kill-free %.4f exceeds tolerance", res.FinalLoss, base.FinalLoss)
		}
	})
}
