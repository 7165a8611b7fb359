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
// relevant transition is journaled before it takes effect — a windowed
// round's admits before the round commits, each window written before it
// folds into the in-memory model, which a crash discards.
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
// before the join: every fold follows the round start's append (and a
// window fold the reservation of its admits), every restore a
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
	// reserved reports that batch is a windowed round's admits, reserved
	// in the journal and not yet committed (see reserveAdmits).
	reserved bool
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

// admitBatch journals a gathered round's admitted updates with their
// dense decoded primals in one Append — one fsync for the batch — before
// the batch folds. The records borrow the updates' primals, which the
// append writes from the updates' own storage before it returns. A
// windowed round journals its admits as it gathers them instead
// (reserveAdmits, fillAdmits, commitAdmits): its updates carry no primal.
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

// reserveAdmits opens a windowed round's admit batch once its first
// window is in: one frame for each client of ids whose upload carries a
// primal (payloads[i] non-nil), in ids order, each withholding a primal of
// dim values that fillAdmits writes window by window. A record carries the
// client's sample count and the version the round dispatched;
// commitAdmits holds each slim update to it. The batch is reserved back to
// back at the WAL's end, after the checkpoint in flight is joined, so no
// window folds into a model the checkpoint still reads.
func (jw *journalWriter) reserveAdmits(round int, ids []int, samples []uint64, payloads []*wire.Payload,
	version uint64, dim int) error {
	if jw == nil || jw.err != nil {
		return jw.error()
	}
	if cap(jw.admits) < len(ids) {
		jw.admits = make([]wire.JournalRecord, len(ids))
	}
	jw.batch = jw.batch[:0]
	for i, p := range payloads {
		if p == nil {
			continue // a goodbye: nothing to admit
		}
		rec := &jw.admits[len(jw.batch)]
		rec.Reset()
		rec.Op = wire.JournalAdmit
		rec.Round = uint32(round)
		rec.ClientID = uint32(ids[i])
		rec.NumSamples = samples[i]
		rec.BaseVersion = version
		jw.batch = append(jw.batch, rec)
	}
	if len(jw.batch) == 0 {
		return nil
	}
	jw.err = jw.j.Reserve(jw.batch, dim)
	jw.reserved = jw.err == nil
	return jw.err
}

// fillAdmits writes one window of every reserved admit, starting at
// coordinate lo, from the window's dense payloads in ids order (nil for a
// goodbye). It runs before the window folds, so no window is folded that
// was not written.
func (jw *journalWriter) fillAdmits(lo int, payloads []*wire.Payload) error {
	if jw == nil || !jw.reserved {
		return jw.error()
	}
	k := 0
	for _, p := range payloads {
		if p == nil {
			continue
		}
		if jw.err = jw.j.Fill(k, lo, p.Dense); jw.err != nil {
			jw.reserved = false
			return jw.err
		}
		k++
	}
	return nil
}

// commitAdmits lands the windowed round's reserved admits — headers in
// order, one fsync — once the gather has brought the slim updates, ids
// order with goodbyes among them. Each data update must be the record
// reserved for it: same client, same sample count, and a BaseVersion that
// is the version the round dispatched (the cutter reads field 8 only after
// the primal). A mismatch fails the round and rewinds the WAL before any
// header lands. Without a reserved batch it does nothing.
func (jw *journalWriter) commitAdmits(updates []*wire.LocalUpdate) error {
	if jw == nil || !jw.reserved {
		return nil
	}
	k := 0
	for _, u := range updates {
		if u.Control == wire.ControlGoodbye {
			continue
		}
		if k == len(jw.batch) {
			jw.abandonAdmits()
			return fmt.Errorf("client %d's update has no admit reserved", u.ClientID)
		}
		rec := jw.batch[k]
		if u.ClientID != rec.ClientID || u.NumSamples != rec.NumSamples || u.BaseVersion != rec.BaseVersion {
			jw.abandonAdmits()
			return fmt.Errorf("client %d's update (%d samples, base version %d) is not the admit reserved for client %d (%d samples, version %d)",
				u.ClientID, u.NumSamples, u.BaseVersion, rec.ClientID, rec.NumSamples, rec.BaseVersion)
		}
		k++
	}
	if k != len(jw.batch) {
		jw.abandonAdmits()
		return fmt.Errorf("%d admits reserved, %d updates gathered", len(jw.batch), k)
	}
	jw.reserved = false
	jw.err = jw.j.Commit()
	return jw.err
}

// abandonAdmits closes a windowed round's reserved admits without
// committing them — its gather failed — cutting the WAL back to its last
// whole frame.
func (jw *journalWriter) abandonAdmits() {
	if jw == nil || !jw.reserved {
		return
	}
	jw.reserved = false
	if err := jw.j.Abandon(); err != nil && jw.err == nil {
		jw.err = err
	}
}

// error is the writer's sticky error; nil for a nil writer.
func (jw *journalWriter) error() error {
	if jw == nil {
		return nil
	}
	return jw.err
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
// crash-recoverable. Journaling writes every admitted update's dense
// primal before the round commits (so a refold needs no client
// cooperation) — from the decoded update in a gathered round, window by
// window as the inbox cuts it in a windowed one — which pins the FedAvg
// family: the ADMM servers carry per-client dual state no admit record
// captures. The streamed-chunk path (Config.StreamChunk) is not
// journaled: its chunks may be float16, and no admit is written from
// them. A subset run admits its prefix primals, which refold like any
// dense admit.
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
