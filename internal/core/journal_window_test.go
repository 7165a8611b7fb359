package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/wire"
)

// windowedJournalConfig is the dense FedAvg barrier run the windowed
// journal tests journal: three rounds, every client every round.
func windowedJournalConfig() Config {
	return Config{Algorithm: AlgoFedAvg, Rounds: 3, LocalSteps: 1, BatchSize: 32, Seed: 7, Scheduler: SchedSyncAll}
}

// journaledRun runs cfg over a fresh tr transport, journaled with no
// checkpoint and no fsync into a fresh directory, with the server seen
// through wrap and each client's transport through wrapClient (when
// non-nil). It returns the result and the bytes of the WAL the run left.
func journaledRun(t *testing.T, cfg Config, fed *dataset.Federated, factory nn.Factory, tr Transport,
	wrap func(comm.ServerTransport) comm.ServerTransport, wrapClient func(int, comm.ClientTransport) comm.ClientTransport) (*Result, []byte) {
	t.Helper()
	st, cts, err := newServerTransport(tr, fed.NumClients(), nn.NumParams(factory()), cfg.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if wrapClient != nil {
		for i := range cts {
			cts[i] = wrapClient(i, cts[i])
		}
	}
	j, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j.NoSync = true
	defer j.Close()
	res, err := RunWithTransport(cfg, fed, factory, RunOptions{Journal: j}, wrap(st), cts)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(j.Dir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return res, wal
}

// TestWindowedJournalWritesTheGatheredWAL: a journaled dense barrier run
// windows on mpi, pubsub and rpc — each client's admit record is written
// window by window as the inbox cuts its upload, and folded after — and
// its WAL is byte for byte the WAL of the same run with windowing hidden,
// whose admits are journaled from the decoded uploads with one Append.
func TestWindowedJournalWritesTheGatheredWAL(t *testing.T) {
	factory := func() nn.Module { return nn.NewMLP(28*28, []int{48}, 10, rng.New(11)) }
	dim := nn.NumParams(factory())
	fed := parallelTestFed(3, 192, 48, 11)
	cfg := windowedJournalConfig()
	for _, tr := range []Transport{TransportMPI, TransportPubSub, TransportRPC} {
		t.Run(string(tr), func(t *testing.T) {
			_, gathered := journaledRun(t, cfg, fed, factory, tr,
				func(st comm.ServerTransport) comm.ServerTransport { return gatheredOnly{st} }, nil)
			var counter *windowCounter
			_, windowed := journaledRun(t, cfg, fed, factory, tr, func(st comm.ServerTransport) comm.ServerTransport {
				counter = &windowCounter{windowedServer: st.(windowedServer)}
				return counter
			}, nil)
			want := int64(cfg.Rounds * fed.NumClients() * wire.ChunkPlan(dim, uploadWindow))
			if got := counter.windows.Load(); got != want {
				t.Fatalf("the journaled run folded %d windows, want %d: it did not take the windowed path", got, want)
			}
			if !bytes.Equal(windowed, gathered) {
				t.Fatalf("the windowed run's WAL (%d bytes) differs from the gathered run's (%d bytes)", len(windowed), len(gathered))
			}
			t.Logf("%d WAL bytes, %d windows", len(windowed), want)
		})
	}
}

// recordingClient is a client transport that keeps a copy of every update
// its client uploads, by round.
type recordingClient struct {
	comm.ClientTransport
	sent map[uint32]*wire.LocalUpdate
}

func (r *recordingClient) SendUpdate(u *wire.LocalUpdate) error {
	c := *u
	c.Primal = append([]float64(nil), u.Primal...)
	r.sent[u.Round] = &c
	return r.ClientTransport.SendUpdate(u)
}

// replayClient is a client that survived its server's crash: it answers
// each dispatch with the update it uploaded for that round in the
// recorded run, until the final broadcast.
func replayClient(ct comm.ClientTransport, sent map[uint32]*wire.LocalUpdate) error {
	for {
		gm, err := ct.RecvGlobal()
		if err != nil {
			return err
		}
		if gm.Final {
			return nil
		}
		u := sent[gm.Round]
		if u == nil || u.BaseVersion != gm.Version {
			return fmt.Errorf("client asked for round %d at version %d, which it never uploaded", gm.Round, gm.Version)
		}
		if err := ct.SendUpdate(u); err != nil {
			return err
		}
	}
}

// walFrame is one frame of a WAL: where it starts and ends, and its
// record.
type walFrame struct {
	off, end int
	rec      *wire.JournalRecord
}

// walFrames splits a whole WAL into its frames: an 8-byte header (length
// and CRC, big-endian), then the record.
func walFrames(t *testing.T, wal []byte) []walFrame {
	t.Helper()
	var frames []walFrame
	for off := 0; off < len(wal); {
		end := off + 8 + int(binary.BigEndian.Uint32(wal[off:]))
		rec := &wire.JournalRecord{}
		if err := rec.Unmarshal(wire.NewDecoder(wal[off+8 : end])); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, walFrame{off: off, end: end, rec: rec})
		off = end
	}
	return frames
}

// TestResumeFromTornWindowedAdmits cuts the WAL of a kill-free journaled
// run inside round 2's admits — after k of its P admit frames, for k = 0,
// 1 and P−1, and once in the middle of an admit's second window — and
// restarts a server over the cut journal, on every windowed transport,
// against clients that survived the crash (they answer a dispatch by
// re-sending the update they uploaded for its round). The restarted
// server folds round 2 through the window fold: the k journaled admits as
// window views, the other clients' uploads as their inbox cuts them. Its
// loss and cohort trajectory must be the kill-free run's, bit for bit, and
// it must have folded exactly the windows of the uploads it gathered.
func TestResumeFromTornWindowedAdmits(t *testing.T) {
	factory := func() nn.Module { return nn.NewMLP(28*28, []int{24}, 10, rng.New(11)) }
	dim := nn.NumParams(factory())
	perUpload := wire.ChunkPlan(dim, uploadWindow)
	if perUpload < 2 {
		t.Fatalf("the model fits one window (%d values); the mid-window cut wants two", dim)
	}
	fed := parallelTestFed(3, 192, 48, 11)
	P := fed.NumClients()
	cfg := windowedJournalConfig()
	for _, tr := range []Transport{TransportMPI, TransportPubSub, TransportRPC} {
		t.Run(string(tr), func(t *testing.T) {
			sent := make([]map[uint32]*wire.LocalUpdate, P)
			ref, wal := journaledRun(t, cfg, fed, factory, tr, func(st comm.ServerTransport) comm.ServerTransport { return st },
				func(i int, ct comm.ClientTransport) comm.ClientTransport {
					sent[i] = make(map[uint32]*wire.LocalUpdate)
					return &recordingClient{ClientTransport: ct, sent: sent[i]}
				})
			frames := walFrames(t, wal)
			start := -1
			for i, f := range frames {
				if f.rec.Op == wire.JournalRoundStart && f.rec.Round == 2 {
					start = i
				}
			}
			if start < 0 || start+P >= len(frames) {
				t.Fatalf("no round 2 with %d admits among %d frames", P, len(frames))
			}
			admit := func(k int) walFrame { return frames[start+1+k] }
			cuts := []struct {
				name string
				at   int // WAL bytes kept
				k    int // whole admits they hold
			}{
				{"0 admits", frames[start].end, 0},
				{"1 admit", admit(0).end, 1},
				{fmt.Sprintf("%d admits", P-1), admit(P - 2).end, P - 1},
				// The second admit's primal is its frame's last 8·dim bytes.
				{"mid-window", admit(1).end - 8*dim + 8*(uploadWindow+100), 1},
			}
			for _, c := range cuts {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal[:c.at], 0o644); err != nil {
					t.Fatal(err)
				}
				j, err := journal.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				j.NoSync = true
				if torn := c.name == "mid-window"; j.Recovered().TornTail != torn {
					t.Fatalf("%s: torn tail %v, want %v", c.name, j.Recovered().TornTail, torn)
				}
				res, windows := resumeOver(t, cfg, fed, factory, tr, j, sent)
				j.Close()
				if len(res.Rounds) != cfg.Rounds-1 {
					t.Fatalf("%s: resumed for %d rounds, want rounds 2..%d", c.name, len(res.Rounds), cfg.Rounds)
				}
				for i, rs := range res.Rounds {
					want := ref.Rounds[i+1]
					if rs.Round != want.Round || math.Float64bits(rs.TestLoss) != math.Float64bits(want.TestLoss) ||
						rs.CohortSize != want.CohortSize {
						t.Fatalf("%s: round %d loss %.17g cohort %d; the kill-free run's round %d: %.17g cohort %d",
							c.name, rs.Round, rs.TestLoss, rs.CohortSize, want.Round, want.TestLoss, want.CohortSize)
					}
				}
				if want := int64((P - c.k + P*(cfg.Rounds-2)) * perUpload); windows != want {
					t.Fatalf("%s: the resumed server folded %d windows, want %d", c.name, windows, want)
				}
			}
		})
	}
}

// resumeOver restarts the server half of cfg over j on a fresh tr
// transport whose clients replay the uploads in sent, and returns its
// result and how many windows its inbox cut.
func resumeOver(t *testing.T, cfg Config, fed *dataset.Federated, factory nn.Factory, tr Transport,
	j *journal.Journal, sent []map[uint32]*wire.LocalUpdate) (*Result, int64) {
	t.Helper()
	st, cts, err := newServerTransport(tr, fed.NumClients(), nn.NumParams(factory()), cfg.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	errs := make([]error, len(cts))
	for i, ct := range cts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ct.Close()
			errs[i] = replayClient(ct, sent[i])
		}()
	}
	counter := &windowCounter{windowedServer: st.(windowedServer)}
	res, _, err := Serve(cfg, fed, factory, RunOptions{Journal: j}, counter)
	if err != nil {
		for _, ct := range cts {
			ct.Close()
		}
		wg.Wait()
		t.Fatal(err)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return res, counter.windows.Load()
}

// TestWindowedJournalKillsBitIdentical kills a journaled run whose
// uploads are three windows each at round 2, in each kill window, on mpi,
// pubsub and rpc: the run must reproduce the kill-free unjournaled run bit
// for bit, loss and cohort, while folding windows in every incarnation.
// After a kill after the dispatch the clients' uploads are cut into
// windows that wait — some of them blocked in their queues — for the next
// incarnation to gather.
func TestWindowedJournalKillsBitIdentical(t *testing.T) {
	factory := func() nn.Module { return nn.NewMLP(28*28, []int{48}, 10, rng.New(11)) }
	fed := parallelTestFed(3, 192, 48, 11)
	cfg := windowedJournalConfig()
	for _, tr := range []Transport{TransportMPI, TransportPubSub, TransportRPC} {
		t.Run(string(tr), func(t *testing.T) {
			base, err := Run(cfg, fed, factory, RunOptions{Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			for w := KillWindow(0); w < numKillWindows; w++ {
				st, cts, err := newServerTransport(tr, fed.NumClients(), nn.NumParams(factory()), cfg.Rounds)
				if err != nil {
					t.Fatal(err)
				}
				j, err := journal.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				j.NoSync = true
				counter := &windowCounter{windowedServer: st.(windowedServer)}
				var res *Result
				done := make(chan error, 1)
				go func() {
					var err error
					res, err = RunWithTransport(cfg, fed, factory, RunOptions{Journal: j, Kills: []ServerKill{{Round: 2, Window: w}}}, counter, cts)
					done <- err
				}()
				select {
				case err = <-done:
				case <-time.After(scenWatchdog):
					t.Fatalf("deadlock: kill %v did not finish within %v", w, scenWatchdog)
				}
				j.Close()
				st.Close()
				if err != nil {
					t.Fatalf("kill %v: %v", w, err)
				}
				if res.Soak.Kills != 1 || counter.windows.Load() == 0 {
					t.Fatalf("kill %v: %d kills, %d windows", w, res.Soak.Kills, counter.windows.Load())
				}
				for i, rs := range res.Rounds {
					if b := base.Rounds[i]; math.Float64bits(rs.TestLoss) != math.Float64bits(b.TestLoss) || rs.CohortSize != b.CohortSize {
						t.Fatalf("kill %v: round %d loss %.17g cohort %d, kill-free %.17g cohort %d",
							w, rs.Round, rs.TestLoss, rs.CohortSize, b.TestLoss, b.CohortSize)
					}
				}
			}
		})
	}
}
