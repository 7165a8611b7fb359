package core

import (
	"fmt"

	"repro/internal/journal"
	"repro/internal/wire"
)

// PendingRound is a round the crashed server had opened but not committed.
// For a barrier scheduler it is the dispatched round: Cohort is who got the
// model and Admitted the updates whose dense primals made it into the
// journal before the crash (possibly none, possibly all). For the buffered
// scheduler it is an admitted-but-uncommitted release batch.
type PendingRound struct {
	Round  int
	Cohort []int
	// Admitted holds the journaled admits reconstructed as decoded local
	// updates, in journal (= pre-crash batch) order.
	Admitted []*wire.LocalUpdate
}

// RecoveredServer is the replayed state of a journaled server: everything
// a restarted process needs to resume the run where the crashed one died.
type RecoveredServer struct {
	// Weights and Version are the last committed global model; Weights is
	// nil when the journal held no commit (resume from w0).
	Weights []float64
	Version int
	// NextRound is the first round not yet committed.
	NextRound int
	// Pending, when non-nil, is the in-flight round to complete before
	// NextRound advances past it.
	Pending *PendingRound
	// Inflight counts open dispatch obligations (buffered scheduler).
	Inflight int
	// Replayed counts the WAL records replayed.
	Replayed int
	// Fresh reports an empty journal: nothing to recover, run from scratch.
	Fresh bool

	mem *membership
}

// Apply loads the recovered model into a freshly constructed aggregator.
// A fresh recovery (no commits journaled) leaves the aggregator at w0.
// Only the journalable aggregators qualify (see ValidateJournalConfig):
// the ADMM servers' duals are in no checkpoint.
func (r *RecoveredServer) Apply(agg Aggregator) error {
	if r.Weights == nil {
		return nil
	}
	var base *BaseServer
	switch a := agg.(type) {
	case *FedAvgServer:
		base = &a.BaseServer
	case *BufferedAggregator:
		base = &a.BaseServer
	default:
		return fmt.Errorf("core: aggregator %T is not journal-recoverable", agg)
	}
	return base.restore(r.Weights, r.Version)
}

// RecoverServer replays a journal's checkpoint + WAL tail into the state
// Run (or a serving loop) resumes from. barrier selects the scheduler
// family the journal was written under — barrier rounds reopen from their
// RoundStart record, buffered releases from their admitted batch. Replay
// is pure: no transport, no clients, no aggregation arithmetic — committed
// weights are restored from the last commit record, not recomputed.
func RecoverServer(rec *journal.Recovered, numClients int, barrier bool) (*RecoveredServer, error) {
	rs := &RecoveredServer{NextRound: 1, mem: newMembership(numClients)}
	if rec == nil || rec.Empty() {
		rs.Fresh = true
		return rs, nil
	}
	if cp := rec.Checkpoint; cp != nil {
		if len(cp.Weights) > 0 {
			rs.Weights = append([]float64(nil), cp.Weights...)
		}
		rs.Version = int(cp.Version)
		rs.NextRound = int(cp.NextRound)
		rs.Inflight = int(cp.Inflight)
		if err := rs.mem.restore(cp); err != nil {
			return nil, err
		}
	}
	// open is the barrier round currently dispatched but uncommitted;
	// admits collects the buffered path's uncommitted release batch.
	var open *PendingRound
	var admits []*wire.LocalUpdate
	admitRound := 0
	for _, r := range rec.Records {
		switch r.Op {
		case wire.JournalRoundStart:
			if barrier {
				open = &PendingRound{Round: int(r.Round)}
				for _, c := range r.Cohort {
					open.Cohort = append(open.Cohort, int(c))
				}
			} else {
				rs.Inflight += len(r.Cohort)
			}
		case wire.JournalAdmit:
			u := &wire.LocalUpdate{
				ClientID:    r.ClientID,
				NumSamples:  r.NumSamples,
				BaseVersion: r.BaseVersion,
				Primal:      r.Primal,
				InCohort:    true,
			}
			if barrier {
				if open == nil || open.Round != int(r.Round) {
					return nil, fmt.Errorf("%w: admit for round %d outside an open round", journal.ErrCorrupt, r.Round)
				}
				open.Admitted = append(open.Admitted, u)
			} else {
				if admitRound != 0 && admitRound != int(r.Round) {
					return nil, fmt.Errorf("%w: admits for releases %d and %d both uncommitted", journal.ErrCorrupt, admitRound, r.Round)
				}
				admitRound = int(r.Round)
				admits = append(admits, u)
				rs.Inflight--
			}
		case wire.JournalLedger:
			m := rs.mem
			c := int(r.ClientID)
			if c < 0 || c >= numClients {
				return nil, fmt.Errorf("%w: ledger record for client %d of %d", journal.ErrCorrupt, c, numClients)
			}
			switch r.LedgerOp {
			case wire.LedgerStrike:
				m.strike(c, int(r.Round))
				if r.Param == 1 {
					rs.Inflight--
				}
			case wire.LedgerDepart:
				m.depart(c, int(r.Param))
				if !barrier {
					// A buffered goodbye only ever arrives through a gathered
					// batch, so it always settles a dispatch obligation.
					rs.Inflight--
				}
			case wire.LedgerReport:
				m.reported(c)
			case wire.LedgerRejoin:
				m.rejoin(c)
			}
		case wire.JournalCommit:
			rs.Weights = append(rs.Weights[:0], r.Weights...)
			rs.Version = int(r.Version)
			rs.NextRound = int(r.Round) + 1
			open = nil
			admits, admitRound = nil, 0
		}
	}
	if barrier {
		if open != nil && open.Round >= rs.NextRound {
			rs.Pending = open
		}
	} else if len(admits) > 0 {
		rs.Pending = &PendingRound{Round: admitRound, Admitted: admits}
	}
	if rs.Inflight < 0 {
		return nil, fmt.Errorf("%w: replay yields %d in-flight obligations", journal.ErrCorrupt, rs.Inflight)
	}
	rs.Replayed = len(rec.Records)
	return rs, nil
}
