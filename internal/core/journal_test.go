package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestJournaledRoundFsyncsThreeTimes: with fsync on, a healthy barrier
// round of four clients reaches the disk three times — the round start,
// the admitted batch, the commit — however many clients it admits. The
// round is windowed: its admits are written window by window as the inbox
// cuts the uploads, and committed with one fsync. At the parent each
// admit was fsynced on its own: six per round.
func TestJournaledRoundFsyncsThreeTimes(t *testing.T) {
	const clients, rounds = 4, 3
	tr, te := dataset.MNIST(dataset.SynthConfig{Train: 48, Test: 16, Seed: 5})
	fed := &dataset.Federated{Clients: dataset.PartitionIID(tr, clients, rng.New(6)), Test: te}
	j, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg := scenConfig(SchedSyncAll, "")
	cfg.Rounds = rounds
	dim := nn.NumParams(scenFactory())
	st, cts, err := newServerTransport(TransportMPI, clients, dim, rounds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	counter := &windowCounter{windowedServer: st.(windowedServer)}
	if _, err := RunWithTransport(cfg, fed, scenFactory, RunOptions{Journal: j}, counter, cts); err != nil {
		t.Fatal(err)
	}
	if want := int64(rounds * clients * wire.ChunkPlan(dim, uploadWindow)); counter.windows.Load() != want {
		t.Fatalf("the server folded %d windows, want %d: the journaled rounds did not window", counter.windows.Load(), want)
	}
	s := j.Stats()
	t.Logf("%d rounds: %+v", rounds, s)
	if s.Frames != (clients+2)*rounds {
		t.Fatalf("%d frames in %d rounds; want %d (round start, %d admits, commit)", s.Frames, rounds, (clients+2)*rounds, clients)
	}
	if s.Fsyncs != 3*rounds {
		t.Fatalf("%d fsyncs in %d healthy rounds; want 3 a round", s.Fsyncs, rounds)
	}
}

// TestJournalCheckpointLandsBeforeRunReturns: a checkpoint runs behind the
// next dispatch, but Run never returns with one in flight. With one after
// every commit, the last round's checkpoint is on disk — whole, with the
// WAL truncated behind it — the moment Run returns, and closing the
// journal right after races nothing (the CI runs this under -race).
func TestJournalCheckpointLandsBeforeRunReturns(t *testing.T) {
	for _, sched := range []string{SchedSyncAll, SchedBuffered} {
		t.Run(sched, func(t *testing.T) {
			dir := t.TempDir()
			j, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			j.NoSync = true
			cfg := scenConfig(sched, "")
			cfg.Rounds = 3
			runSoakScenario(t, cfg, RunOptions{Transport: TransportMPI, Journal: j, CheckpointEvery: 1})
			if s := j.Stats(); s.Checkpoints != uint64(cfg.Rounds) {
				t.Fatalf("%d checkpoints written when Run returned; want %d", s.Checkpoints, cfg.Rounds)
			}
			peek, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := peek.Recovered()
			peek.Close()
			if got.Checkpoint == nil || got.Checkpoint.NextRound != uint32(cfg.Rounds+1) || len(got.Records) != 0 || got.TornTail {
				t.Fatalf("on disk when Run returned: checkpoint %+v, %d WAL records, torn %v", got.Checkpoint, len(got.Records), got.TornTail)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
