package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/journal"
	"repro/internal/wire"
)

// errServerKilled is the sentinel a round loop returns when the scripted
// in-process kill -9 fires: the run's "brain" (scheduler, aggregator,
// membership) is discarded without any cleanup and Run's recovery driver
// rebuilds it from the journal, exactly as a restarted process would.
var errServerKilled = errors.New("core: server killed")

// KillWindow pins where inside a round an in-process server kill lands.
// The windows are the three recovery-relevant crash positions: a crash
// between rounds recovers bit-identically with no client work at stake; a
// crash after dispatch re-gathers the in-flight round; a crash after the
// admits are journaled but before the commit refolds the journaled batch
// bit-identically without re-asking any client.
type KillWindow int

// Kill windows, in round order.
const (
	// KillBetweenRounds fires at the top of the round loop, before any
	// dispatch — nothing is in flight; recovery is a pure state reload.
	KillBetweenRounds KillWindow = iota
	// KillAfterDispatch fires after the cohort received the model but
	// before any update was gathered — recovery re-gathers the round.
	KillAfterDispatch
	// KillBeforeCommit fires after the round's admits were journaled but
	// before the aggregate committed — recovery refolds from the journal.
	KillBeforeCommit
	numKillWindows
)

// String names the window for logs and test failures.
func (w KillWindow) String() string {
	switch w {
	case KillBetweenRounds:
		return "between-rounds"
	case KillAfterDispatch:
		return "after-dispatch"
	case KillBeforeCommit:
		return "before-commit"
	}
	return fmt.Sprintf("window(%d)", int(w))
}

// ServerKill schedules one in-process server death for a journaled run.
type ServerKill struct {
	Round  int        // 1-based round (or buffered release) the kill targets
	Window KillWindow // where inside the round it lands
	Gap    int        // rounds of simulated downtime before recovery
}

// SoakStats accounts a journaled run's crash-and-recover history.
type SoakStats struct {
	// Kills counts the in-process server deaths executed.
	Kills int
	// Recoveries counts successful journal recoveries (== Kills unless the
	// run also started from a pre-existing journal).
	Recoveries int
	// ReplayedRecords totals the WAL records replayed across recoveries.
	ReplayedRecords int
	// RecoverySec lists each recovery's wall time (replay + state rebuild),
	// in order.
	RecoverySec []float64
}

// journalWriter is the round loops' write-ahead hook: every recovery-
// relevant transition is appended to the journal before it takes effect.
// A nil *journalWriter is valid and inert, so the unjournaled path pays
// only nil checks. Append failures stick: the first error poisons the
// writer and surfaces at the next commit barrier, so a half-journaled
// round can never be committed as if it were durable.
//
// A checkpoint runs behind the next dispatch: commit starts it with
// Journal.StartCheckpoint and returns. The journal joins it at its next
// call — the writer's next append (commit starts a checkpoint only while
// err is nil, so that append reaches the journal), or the kill path's
// Recover — and serve joins it before returning. Until then the checkpoint
// reads the aggregator's model, which nothing folds into or restores
// before the join: every fold follows an admit append, every restore a
// Recover.
type journalWriter struct {
	j   *journal.Journal
	err error

	checkpointEvery int
	commits         int

	kills  []ServerKill
	fired  []bool
	gap    int // downtime of the kill that just fired
	killed int // kills fired so far

	scratch wire.JournalRecord
	admits  []wire.JournalRecord
	batch   []*wire.JournalRecord
}

func newJournalWriter(j *journal.Journal, checkpointEvery int, kills []ServerKill) *journalWriter {
	return &journalWriter{
		j:               j,
		checkpointEvery: checkpointEvery,
		kills:           kills,
		fired:           make([]bool, len(kills)),
	}
}

// shouldKill reports whether a scripted kill lands at this window of this
// round, consuming it. The caller must then return errServerKilled without
// touching any state — that is what makes the kill a faithful kill -9.
func (jw *journalWriter) shouldKill(w KillWindow, round int) bool {
	if jw == nil {
		return false
	}
	for i, k := range jw.kills {
		if !jw.fired[i] && k.Round == round && k.Window == w {
			jw.fired[i] = true
			jw.gap = k.Gap
			jw.killed++
			return true
		}
	}
	return false
}

// append journals a batch of records with one Append, with the
// sticky-error discipline.
func (jw *journalWriter) append(recs ...*wire.JournalRecord) {
	if jw == nil || jw.err != nil {
		return
	}
	jw.err = jw.j.Append(recs...)
}

// finish joins the checkpoint the last commit may have left running, so
// that serve never returns with one in flight.
func (jw *journalWriter) finish() error {
	if jw == nil {
		return nil
	}
	return jw.j.WaitCheckpoint()
}

// roundStart journals a round open (barrier) or dispatch (buffered).
func (jw *journalWriter) roundStart(round int, cohort []int, version uint64) {
	if jw == nil {
		return
	}
	rec := &jw.scratch
	rec.Reset()
	rec.Op = wire.JournalRoundStart
	rec.Round = uint32(round)
	rec.Version = version
	for _, c := range cohort {
		rec.Cohort = append(rec.Cohort, uint32(c))
	}
	jw.append(rec)
}

// admitBatch journals the admitted updates with their dense decoded
// primals in one Append — one fsync for the batch. The records borrow the
// updates' primals, which the append writes from the updates' own storage
// before it returns.
func (jw *journalWriter) admitBatch(round int, data []*wire.LocalUpdate) {
	if jw == nil {
		return
	}
	if cap(jw.admits) < len(data) {
		jw.admits = make([]wire.JournalRecord, len(data))
	}
	jw.batch = jw.batch[:0]
	for i, u := range data {
		rec := &jw.admits[i]
		rec.Reset()
		rec.Op = wire.JournalAdmit
		rec.Round = uint32(round)
		rec.ClientID = u.ClientID
		rec.NumSamples = u.NumSamples
		rec.BaseVersion = u.BaseVersion
		rec.Primal = u.Primal
		jw.batch = append(jw.batch, rec)
	}
	if len(jw.batch) > 0 {
		jw.append(jw.batch...)
	}
	for _, rec := range jw.batch {
		rec.Primal = nil
	}
}

// ledger journals one membership mutation — wired as the membership's
// onLedger callback so every roster change self-journals at its source.
func (jw *journalWriter) ledger(op uint8, client, round, param uint32) {
	if jw == nil {
		return
	}
	rec := &jw.scratch
	rec.Reset()
	rec.Op = wire.JournalLedger
	rec.LedgerOp = op
	rec.ClientID = client
	rec.Round = round
	rec.Param = param
	jw.append(rec)
}

// commit journals the round's close — the new global model — then flushes
// the sticky error: a round is durable only when everything journaled
// before it landed. Every checkpointEvery-th commit also compacts the WAL
// into a checkpoint snapshotting model + membership + inflight count,
// started behind the next dispatch (see journalWriter). Both borrow the
// aggregator's live model instead of copying it: the commit's append
// writes it before returning, and the checkpoint reads it until the join.
func (jw *journalWriter) commit(round int, agg Aggregator, mem *membership, inflight int) error {
	if jw == nil {
		return nil
	}
	w := agg.GlobalWeights()
	rec := &jw.scratch
	rec.Reset()
	rec.Op = wire.JournalCommit
	rec.Round = uint32(round)
	rec.Version = uint64(agg.Version())
	rec.Weights = w
	jw.append(rec)
	rec.Weights = nil
	if jw.err != nil {
		return fmt.Errorf("core: journal round %d: %w", round, jw.err)
	}
	jw.commits++
	if jw.checkpointEvery > 0 && jw.commits%jw.checkpointEvery == 0 {
		cp := &wire.JournalCheckpoint{
			NextRound: uint32(round + 1),
			Version:   uint64(agg.Version()),
			Weights:   w,
			Inflight:  uint64(inflight),
		}
		mem.snapshot(cp)
		if err := jw.j.StartCheckpoint(cp); err != nil {
			jw.err = err
			return fmt.Errorf("core: checkpoint after round %d: %w", round, err)
		}
	}
	return nil
}

// ValidateJournalConfig rejects configurations the journal cannot make
// crash-recoverable. Journaling needs every admitted update's dense primal
// in hand at admit time (so a refold needs no client cooperation), which
// pins the FedAvg family: the ADMM servers carry per-client dual state no
// admit record captures, and the streamed-chunk path folds without ever
// materializing a primal. A subset run admits its prefix primals, which
// refold like any dense admit.
func ValidateJournalConfig(cfg Config) error {
	if cfg.Algorithm != AlgoFedAvg {
		return fmt.Errorf("core: journaling requires FedAvg (ADMM dual state is not journaled)")
	}
	if cfg.StreamChunk > 0 {
		return fmt.Errorf("core: journaling and StreamChunk cannot combine (chunk folds never materialize an admit primal)")
	}
	return nil
}

// goneForGood is the wire sentinel for a permanent departure; core uses
// math.MaxInt in memory.
const goneForGood = ^uint32(0)

// snapshot writes the roster into a checkpoint.
func (m *membership) snapshot(cp *wire.JournalCheckpoint) {
	n := len(m.departedUntil)
	cp.DepartedUntil = cp.DepartedUntil[:0]
	cp.BenchedUntil = cp.BenchedUntil[:0]
	cp.Strikes = cp.Strikes[:0]
	cp.AwaitRejoin = cp.AwaitRejoin[:0]
	for c := 0; c < n; c++ {
		d := uint32(0)
		if m.departedUntil[c] == math.MaxInt {
			d = goneForGood
		} else {
			d = uint32(m.departedUntil[c])
		}
		cp.DepartedUntil = append(cp.DepartedUntil, d)
		cp.BenchedUntil = append(cp.BenchedUntil, uint32(m.benchedUntil[c]))
		cp.Strikes = append(cp.Strikes, uint32(m.strikes[c]))
		aw := uint32(0)
		if m.awaitingRejoin[c] {
			aw = 1
		}
		cp.AwaitRejoin = append(cp.AwaitRejoin, aw)
	}
	cp.Rejoined = uint64(m.rejoined)
	cp.TimedOut = uint64(m.timedOut)
}

// restore loads the roster from a checkpoint. The roster size must match
// the federation; a checkpoint from a different federation is corrupt.
func (m *membership) restore(cp *wire.JournalCheckpoint) error {
	if len(cp.DepartedUntil) == 0 {
		// A checkpoint of an all-healthy roster omits the arrays entirely;
		// the fresh zero roster is already correct.
		m.rejoined = int(cp.Rejoined)
		m.timedOut = int(cp.TimedOut)
		return nil
	}
	if len(cp.DepartedUntil) != len(m.departedUntil) {
		return fmt.Errorf("core: checkpoint roster has %d clients, federation %d",
			len(cp.DepartedUntil), len(m.departedUntil))
	}
	for c := range cp.DepartedUntil {
		if cp.DepartedUntil[c] == goneForGood {
			m.departedUntil[c] = math.MaxInt
		} else {
			m.departedUntil[c] = int(cp.DepartedUntil[c])
		}
		m.benchedUntil[c] = int(cp.BenchedUntil[c])
		m.strikes[c] = int(cp.Strikes[c])
		m.awaitingRejoin[c] = cp.AwaitRejoin[c] != 0
	}
	m.rejoined = int(cp.Rejoined)
	m.timedOut = int(cp.TimedOut)
	return nil
}
