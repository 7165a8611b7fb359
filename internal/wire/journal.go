package wire

import "fmt"

// Journal record operations. A JournalRecord is one entry of the server's
// write-ahead round journal (internal/journal): every state transition that
// matters for crash recovery is appended — and fsynced — *before* it takes
// effect in memory, so a rebooted server can replay checkpoint + tail and
// land in exactly the state the crashed process was in.
const (
	// JournalRoundStart opens a round (barrier) or records a dispatch
	// (buffered): the cohort the model went to, at which version.
	JournalRoundStart uint8 = 1
	// JournalAdmit records one admitted LocalUpdate with its dense decoded
	// primal — written before the fold, so an interrupted aggregation can
	// refold the batch bit-identically without re-asking the clients.
	JournalAdmit uint8 = 2
	// JournalLedger records one membership/obligation-ledger mutation
	// (strike, depart, report, rejoin); see the Ledger* constants.
	JournalLedger uint8 = 3
	// JournalCommit closes a round: the new global weights and version.
	JournalCommit uint8 = 4
)

// Ledger operations carried by JournalRecord.LedgerOp.
const (
	// LedgerStrike benches a timed-out client (Param = strike round).
	LedgerStrike uint8 = 1
	// LedgerDepart records a goodbye (Param = rejoin round, 0 = forever).
	LedgerDepart uint8 = 2
	// LedgerReport clears a client's strikes after a successful reply.
	LedgerReport uint8 = 3
	// LedgerRejoin re-admits a leased-out client whose lease fell due.
	LedgerRejoin uint8 = 4
)

// JournalRecord is one WAL entry. Which fields are meaningful depends on
// Op; unused fields are zero and omitted on the wire.
type JournalRecord struct {
	// Seq is the strictly increasing journal sequence number, assigned by
	// the journal on append.
	Seq uint64
	// Op discriminates the record; one of the Journal* constants.
	Op uint8
	// Round is the 1-based round (barrier) or release (buffered) index.
	Round uint32
	// Version is the model version: at RoundStart the version dispatched,
	// at Commit the version after the fold.
	Version uint64
	// Cohort lists the dispatched client IDs (RoundStart only).
	Cohort []uint32
	// ClientID identifies the client of an Admit or Ledger record.
	ClientID uint32
	// NumSamples and BaseVersion echo the admitted update's weighting
	// fields (Admit only).
	NumSamples  uint64
	BaseVersion uint64
	// Primal is the admitted update's dense decoded parameter vector
	// (Admit only) — post pipeline inverse, so a replayed fold needs no
	// client cooperation and reproduces the original bits.
	Primal []float64
	// Weights is the committed global model (Commit only).
	Weights []float64
	// LedgerOp and Param describe a Ledger mutation; Param is the strike
	// round (LedgerStrike) or the rejoin round (LedgerDepart).
	LedgerOp uint8
	Param    uint32
}

// Reset clears m for reuse, keeping the vector buffers' capacity.
func (m *JournalRecord) Reset() {
	*m = JournalRecord{
		Cohort:  m.Cohort[:0],
		Primal:  m.Primal[:0],
		Weights: m.Weights[:0],
	}
}

// Marshal encodes m.
func (m *JournalRecord) Marshal(e *Encoder) {
	e.Uint64(1, m.Seq)
	e.Uint64(2, uint64(m.Op))
	e.Uint64(3, uint64(m.Round))
	if m.Version > 0 {
		e.Uint64(4, m.Version)
	}
	if len(m.Cohort) > 0 {
		e.Uint32s(5, m.Cohort)
	}
	if m.ClientID > 0 {
		e.Uint64(6, uint64(m.ClientID))
	}
	if m.NumSamples > 0 {
		e.Uint64(7, m.NumSamples)
	}
	if m.BaseVersion > 0 {
		e.Uint64(8, m.BaseVersion)
	}
	if len(m.Primal) > 0 {
		e.Doubles(9, m.Primal)
	}
	if len(m.Weights) > 0 {
		e.Doubles(10, m.Weights)
	}
	if m.LedgerOp > 0 {
		e.Uint64(11, uint64(m.LedgerOp))
	}
	if m.Param > 0 {
		e.Uint64(12, uint64(m.Param))
	}
}

// Unmarshal decodes m, ignoring unknown fields. m is Reset first so reused
// structs reuse buffer capacity without leaking a previous record's fields.
// The Op and LedgerOp discriminators are validated; adversarial input
// errors, never panics.
func (m *JournalRecord) Unmarshal(d *Decoder) error {
	m.Reset()
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			if m.Seq, err = d.Uint64(); err != nil {
				return err
			}
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			if v < uint64(JournalRoundStart) || v > uint64(JournalCommit) {
				return fmt.Errorf("wire: journal op %d out of range", v)
			}
			m.Op = uint8(v)
		case 3:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.Round = v
		case 4:
			if m.Version, err = d.Uint64(); err != nil {
				return err
			}
		case 5:
			if m.Cohort, err = d.Uint32sInto(m.Cohort); err != nil {
				return err
			}
		case 6:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.ClientID = v
		case 7:
			if m.NumSamples, err = d.Uint64(); err != nil {
				return err
			}
		case 8:
			if m.BaseVersion, err = d.Uint64(); err != nil {
				return err
			}
		case 9:
			if m.Primal, err = d.DoublesInto(m.Primal); err != nil {
				return err
			}
		case 10:
			if m.Weights, err = d.DoublesInto(m.Weights); err != nil {
				return err
			}
		case 11:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			if v < uint64(LedgerStrike) || v > uint64(LedgerRejoin) {
				return fmt.Errorf("wire: journal ledger op %d out of range", v)
			}
			m.LedgerOp = uint8(v)
		case 12:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.Param = v
		default:
			if err := d.Skip(w); err != nil {
				return err
			}
		}
	}
	if m.Op == 0 {
		return fmt.Errorf("wire: journal record without an op")
	}
	return nil
}

// JournalCheckpoint is the compaction snapshot of the round journal: the
// full recovery-relevant server state as of journal sequence Seq. A
// checkpoint plus the WAL records after Seq reconstruct the server exactly.
// The membership arrays run parallel over client IDs; a DepartedUntil of
// ^uint32(0) means gone for good (core's math.MaxInt sentinel).
type JournalCheckpoint struct {
	// Seq is the highest journal sequence folded into this snapshot.
	Seq uint64
	// NextRound is the first round not yet committed when the snapshot was
	// taken.
	NextRound uint32
	// Version and Weights are the committed global model.
	Version uint64
	Weights []float64
	// Membership roster (see core's membership): per-client exclusion
	// rounds, strike counts, and pending-rejoin flags (0/1).
	DepartedUntil []uint32
	BenchedUntil  []uint32
	Strikes       []uint32
	AwaitRejoin   []uint32
	// Rejoined and TimedOut carry the run's fault counters across the
	// crash so Result accounting stays continuous.
	Rejoined uint64
	TimedOut uint64
	// Inflight counts the dispatch obligations open when the snapshot was
	// taken — buffered runs resume their outstanding-arrival accounting
	// from it (always 0 for barrier schedulers, which never checkpoint
	// mid-round).
	Inflight uint64
}

// Reset clears m for reuse, keeping buffer capacity.
func (m *JournalCheckpoint) Reset() {
	*m = JournalCheckpoint{
		Weights:       m.Weights[:0],
		DepartedUntil: m.DepartedUntil[:0],
		BenchedUntil:  m.BenchedUntil[:0],
		Strikes:       m.Strikes[:0],
		AwaitRejoin:   m.AwaitRejoin[:0],
	}
}

// Marshal encodes m.
func (m *JournalCheckpoint) Marshal(e *Encoder) {
	e.Uint64(1, m.Seq)
	e.Uint64(2, uint64(m.NextRound))
	if m.Version > 0 {
		e.Uint64(3, m.Version)
	}
	e.Doubles(4, m.Weights)
	if len(m.DepartedUntil) > 0 {
		e.Uint32s(5, m.DepartedUntil)
	}
	if len(m.BenchedUntil) > 0 {
		e.Uint32s(6, m.BenchedUntil)
	}
	if len(m.Strikes) > 0 {
		e.Uint32s(7, m.Strikes)
	}
	if len(m.AwaitRejoin) > 0 {
		e.Uint32s(8, m.AwaitRejoin)
	}
	if m.Rejoined > 0 {
		e.Uint64(9, m.Rejoined)
	}
	if m.TimedOut > 0 {
		e.Uint64(10, m.TimedOut)
	}
	if m.Inflight > 0 {
		e.Uint64(11, m.Inflight)
	}
}

// Unmarshal decodes m, ignoring unknown fields; m is Reset first. The
// membership arrays must agree in length — a checkpoint describing
// different-sized rosters is corrupt, not merely odd.
func (m *JournalCheckpoint) Unmarshal(d *Decoder) error {
	m.Reset()
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			if m.Seq, err = d.Uint64(); err != nil {
				return err
			}
		case 2:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.NextRound = v
		case 3:
			if m.Version, err = d.Uint64(); err != nil {
				return err
			}
		case 4:
			if m.Weights, err = d.DoublesInto(m.Weights); err != nil {
				return err
			}
		case 5:
			if m.DepartedUntil, err = d.Uint32sInto(m.DepartedUntil); err != nil {
				return err
			}
		case 6:
			if m.BenchedUntil, err = d.Uint32sInto(m.BenchedUntil); err != nil {
				return err
			}
		case 7:
			if m.Strikes, err = d.Uint32sInto(m.Strikes); err != nil {
				return err
			}
		case 8:
			if m.AwaitRejoin, err = d.Uint32sInto(m.AwaitRejoin); err != nil {
				return err
			}
		case 9:
			if m.Rejoined, err = d.Uint64(); err != nil {
				return err
			}
		case 10:
			if m.TimedOut, err = d.Uint64(); err != nil {
				return err
			}
		case 11:
			if m.Inflight, err = d.Uint64(); err != nil {
				return err
			}
		default:
			if err := d.Skip(w); err != nil {
				return err
			}
		}
	}
	n := len(m.DepartedUntil)
	if len(m.BenchedUntil) != n || len(m.Strikes) != n || len(m.AwaitRejoin) != n {
		return fmt.Errorf("wire: journal checkpoint membership arrays disagree: %d/%d/%d/%d",
			n, len(m.BenchedUntil), len(m.Strikes), len(m.AwaitRejoin))
	}
	return nil
}
