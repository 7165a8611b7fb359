package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/wire"
)

// Replay unit tests: RecoverServer is pure (no transport, no aggregation),
// so its behavior is pinned directly against hand-built journal states.

func jrRoundStart(round int, cohort []uint32, version uint64) *wire.JournalRecord {
	return &wire.JournalRecord{Op: wire.JournalRoundStart, Round: uint32(round), Cohort: cohort, Version: version}
}

func jrAdmit(round, client int, samples uint64, primal []float64) *wire.JournalRecord {
	return &wire.JournalRecord{Op: wire.JournalAdmit, Round: uint32(round), ClientID: uint32(client),
		NumSamples: samples, Primal: primal}
}

func jrLedger(op uint8, client, round, param uint32) *wire.JournalRecord {
	return &wire.JournalRecord{Op: wire.JournalLedger, LedgerOp: op, ClientID: client, Round: round, Param: param}
}

func jrCommit(round int, version uint64, w []float64) *wire.JournalRecord {
	return &wire.JournalRecord{Op: wire.JournalCommit, Round: uint32(round), Version: version, Weights: w}
}

func TestRecoverServerFreshOnEmptyJournal(t *testing.T) {
	for _, rec := range []*journal.Recovered{nil, {}} {
		rs, err := RecoverServer(rec, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		if !rs.Fresh || rs.NextRound != 1 || rs.Pending != nil || rs.Weights != nil {
			t.Fatalf("empty journal recovered as %+v", rs)
		}
	}
}

func TestRecoverServerBarrierPendingRound(t *testing.T) {
	rec := &journal.Recovered{Records: []*wire.JournalRecord{
		jrRoundStart(1, []uint32{0, 1, 2}, 0),
		jrAdmit(1, 0, 10, []float64{1, 2}),
		jrAdmit(1, 2, 30, []float64{5, 6}),
	}}
	rs, err := RecoverServer(rec, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Fresh {
		t.Fatal("non-empty journal recovered as fresh")
	}
	p := rs.Pending
	if p == nil || p.Round != 1 || len(p.Cohort) != 3 || len(p.Admitted) != 2 {
		t.Fatalf("pending round %+v", p)
	}
	if got := p.AdmittedSet(); !got[0] || !got[2] || got[1] {
		t.Fatalf("admitted set %v", got)
	}
	if p.Admitted[1].ClientID != 2 || p.Admitted[1].Primal[1] != 6 || !p.Admitted[1].InCohort {
		t.Fatalf("admit reconstruction %+v", p.Admitted[1])
	}
	if rs.Replayed != 3 {
		t.Fatalf("replayed %d records, want 3", rs.Replayed)
	}
}

func TestRecoverServerCommitClosesRound(t *testing.T) {
	rec := &journal.Recovered{Records: []*wire.JournalRecord{
		jrRoundStart(1, []uint32{0, 1}, 0),
		jrAdmit(1, 0, 10, []float64{1}),
		jrAdmit(1, 1, 10, []float64{2}),
		jrCommit(1, 1, []float64{1.5}),
		jrRoundStart(2, []uint32{0, 1}, 1),
	}}
	rs, err := RecoverServer(rec, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NextRound != 2 || rs.Version != 1 || len(rs.Weights) != 1 || rs.Weights[0] != 1.5 {
		t.Fatalf("committed state %+v", rs)
	}
	// Round 2 opened with no admits: it is the pending round to complete.
	if rs.Pending == nil || rs.Pending.Round != 2 || len(rs.Pending.Admitted) != 0 {
		t.Fatalf("pending %+v", rs.Pending)
	}
}

func TestRecoverServerCheckpointPlusTail(t *testing.T) {
	rec := &journal.Recovered{
		Checkpoint: &wire.JournalCheckpoint{
			Seq: 9, NextRound: 5, Version: 4, Weights: []float64{2, 3},
			BenchedUntil:  []uint32{0, 7},
			DepartedUntil: []uint32{0, 0},
			Strikes:       []uint32{0, 2},
			AwaitRejoin:   []uint32{0, 0},
			TimedOut:      2,
		},
		Records: []*wire.JournalRecord{
			jrRoundStart(5, []uint32{0}, 4),
			jrAdmit(5, 0, 10, []float64{4, 5}),
			jrCommit(5, 5, []float64{3, 4}),
		},
	}
	rs, err := RecoverServer(rec, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NextRound != 6 || rs.Version != 5 || rs.Weights[0] != 3 || rs.Pending != nil {
		t.Fatalf("recovered %+v", rs)
	}
	// The checkpointed roster survived: client 1 is benched until round 7.
	if rs.mem.eligible(1, 6) || !rs.mem.eligible(1, 7) || rs.mem.strikes[1] != 2 || rs.mem.timedOut != 2 {
		t.Fatalf("roster not restored: %+v", rs.mem)
	}
}

func TestRecoverServerBufferedInflightAccounting(t *testing.T) {
	// 4 dispatched − 1 admitted − 1 struck in flight − 1 departed = 1 open.
	rec := &journal.Recovered{Records: []*wire.JournalRecord{
		jrRoundStart(1, []uint32{0, 1, 2, 3}, 0),
		jrAdmit(1, 0, 10, []float64{1}),
		jrLedger(wire.LedgerStrike, 1, 1, 1),
		jrLedger(wire.LedgerDepart, 2, 0, 0),
	}}
	rs, err := RecoverServer(rec, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Inflight != 1 {
		t.Fatalf("inflight %d, want 1", rs.Inflight)
	}
	if rs.Pending == nil || rs.Pending.Round != 1 || len(rs.Pending.Admitted) != 1 {
		t.Fatalf("pending %+v", rs.Pending)
	}
	// The departed client is gone for good; the struck one is benched.
	if rs.mem.departedUntil[2] != math.MaxInt || rs.mem.strikes[1] != 1 {
		t.Fatalf("roster %+v", rs.mem)
	}
}

func TestRecoverServerBufferedCommitSettlesBatch(t *testing.T) {
	rec := &journal.Recovered{Records: []*wire.JournalRecord{
		jrRoundStart(1, []uint32{0, 1, 2}, 0),
		jrAdmit(1, 0, 10, []float64{1}),
		jrAdmit(1, 1, 10, []float64{2}),
		jrCommit(1, 1, []float64{0.5}),
		jrRoundStart(2, []uint32{0, 1}, 1),
	}}
	rs, err := RecoverServer(rec, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	// 3 − 2 admitted + 2 re-dispatched = 3 in flight, nothing pending.
	if rs.Inflight != 3 || rs.Pending != nil || rs.NextRound != 2 {
		t.Fatalf("recovered %+v", rs)
	}
}

func TestRecoverServerCorruptShapes(t *testing.T) {
	cases := map[string]struct {
		records []*wire.JournalRecord
		barrier bool
	}{
		"admit outside open round": {
			records: []*wire.JournalRecord{jrAdmit(1, 0, 10, []float64{1})},
			barrier: true,
		},
		"admit for wrong open round": {
			records: []*wire.JournalRecord{
				jrRoundStart(1, []uint32{0}, 0),
				jrAdmit(2, 0, 10, []float64{1}),
			},
			barrier: true,
		},
		"two uncommitted buffered releases": {
			records: []*wire.JournalRecord{
				jrAdmit(1, 0, 10, []float64{1}),
				jrAdmit(2, 1, 10, []float64{2}),
			},
		},
		"ledger client out of roster": {
			records: []*wire.JournalRecord{jrLedger(wire.LedgerStrike, 9, 1, 0)},
			barrier: true,
		},
		"negative inflight": {
			records: []*wire.JournalRecord{jrAdmit(1, 0, 10, []float64{1})},
		},
	}
	for name, tc := range cases {
		if _, err := RecoverServer(&journal.Recovered{Records: tc.records}, 3, tc.barrier); !errors.Is(err, journal.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestRecoverServerApplyRestoresAggregators(t *testing.T) {
	w0 := func() []float64 { return []float64{0, 0, 0} } // each aggregator owns its own
	for _, sched := range []string{SchedSyncAll, SchedBuffered} {
		cfg := Config{Algorithm: AlgoFedAvg, Rounds: 1, Scheduler: sched}.WithDefaults()
		agg, err := NewAggregator(cfg, w0(), 2)
		if err != nil {
			t.Fatal(err)
		}
		rs := &RecoveredServer{Weights: []float64{1, 2, 3}, Version: 7}
		if err := rs.Apply(agg); err != nil {
			t.Fatal(err)
		}
		if agg.Version() != 7 {
			t.Fatalf("%s: version %d, want 7", sched, agg.Version())
		}
		if w := agg.GlobalWeights(); w[2] != 3 {
			t.Fatalf("%s: weights %v", sched, w)
		}
	}
	// Dimension mismatch is an error, not a silent partial copy.
	agg, err := NewAggregator(Config{Algorithm: AlgoFedAvg, Rounds: 1}.WithDefaults(), w0(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&RecoveredServer{Weights: []float64{1}, Version: 1}).Apply(agg); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// An ADMM server embeds the same BaseServer, but its duals are in no
	// checkpoint: restoring only its model would resume a different run.
	admm, err := NewAggregator(Config{Algorithm: AlgoIIADMM, Rounds: 1}.WithDefaults(), w0(), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = (&RecoveredServer{Weights: []float64{1, 2, 3}, Version: 7}).Apply(admm)
	if err == nil || !strings.Contains(err.Error(), "not journal-recoverable") {
		t.Fatalf("IIADMM restore: err = %v, want a journal-recoverable refusal", err)
	}
	if admm.Version() != 0 || admm.GlobalWeights()[2] != 0 {
		t.Fatalf("the refused restore still moved the IIADMM server: version %d, weights %v", admm.Version(), admm.GlobalWeights())
	}
}
