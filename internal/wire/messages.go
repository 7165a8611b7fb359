package wire

import (
	"fmt"
	"math"
)

// Kind discriminates the RPC message types exchanged between server and
// clients, carried in the transport frame header.
type Kind uint8

// Message kinds.
const (
	KindJoin        Kind = 1 // client → server: registration
	KindJoinAck     Kind = 2 // server → client: run configuration
	KindGlobalModel Kind = 3 // server → client: weights for the next round
	KindLocalUpdate Kind = 4 // client → server: trained local parameters
	KindShutdown    Kind = 5 // server → client: training complete
	// Kind 6 is retired; do not reuse it.
	// KindModelChunk carries one fixed-size slice of a model vector — the
	// streaming path's unit of transfer for models too large to ride one
	// message (see ModelChunk).
	KindModelChunk Kind = 7
	// KindChunkAck tells a client that its whole chunk stream is folded:
	// one per upload, after the last chunk's fold.
	KindChunkAck Kind = 8
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "Join"
	case KindJoinAck:
		return "JoinAck"
	case KindGlobalModel:
		return "GlobalModel"
	case KindLocalUpdate:
		return "LocalUpdate"
	case KindShutdown:
		return "Shutdown"
	case KindModelChunk:
		return "ModelChunk"
	case KindChunkAck:
		return "ChunkAck"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Join is the registration message a client sends on connect. Resume marks
// a reconnect: the client held a session before (it crashed, or its
// connection blipped) and asks the server to splice this connection into
// the existing session instead of treating it as a fresh participant —
// the session-resumption half of the ClientGoodbye/rejoin handshake.
type Join struct {
	ClientID uint32
	Name     string
	Resume   bool
	// TenantID names the federation this client belongs to on a
	// multi-tenant server (the FL-as-a-service host). The zero value is
	// the default tenant, so a pre-tenancy client joins tenant 0 and a
	// pre-tenancy server never sees the field at all — the header is
	// backward-compatible in both directions. ClientID is tenant-local.
	TenantID uint32
}

// Marshal encodes m.
func (m *Join) Marshal(e *Encoder) {
	e.Uint64(1, uint64(m.ClientID))
	e.String(2, m.Name)
	if m.Resume {
		e.Bool(3, m.Resume)
	}
	if m.TenantID > 0 {
		e.Uint64(4, uint64(m.TenantID))
	}
}

// Unmarshal decodes m, ignoring unknown fields.
func (m *Join) Unmarshal(d *Decoder) error {
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.ClientID = v
		case 2:
			s, err := d.String()
			if err != nil {
				return err
			}
			m.Name = s
		case 3:
			v, err := d.Bool()
			if err != nil {
				return err
			}
			m.Resume = v
		case 4:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.TenantID = v
		default:
			if err := d.Skip(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// Plan is the federation's shared experiment plan, held by the server and
// handed to every client in its JoinAck: everything a client must agree on
// with the server to train the same model on the same data split. The
// server is the one source of truth — a client builds its configuration
// from the plan it is given, not from flags that "must match".
type Plan struct {
	Algorithm string
	Rho, Zeta float64
	Seed      uint64
	Pipeline  string
	Chunk     uint32  // streamed-uplink chunk size in coordinates (0 = monolithic)
	Subset    float64 // partial-upload coordinate fraction (0 = dense)
	Train     uint32  // total training samples of the shared corpus
	Test      uint32  // validation samples of the shared corpus
}

// Marshal encodes p, omitting zero fields.
func (p *Plan) Marshal(e *Encoder) {
	if p.Algorithm != "" {
		e.String(1, p.Algorithm)
	}
	if p.Rho != 0 {
		e.Float64(2, p.Rho)
	}
	if p.Zeta != 0 {
		e.Float64(3, p.Zeta)
	}
	if p.Seed != 0 {
		e.Uint64(4, p.Seed)
	}
	if p.Pipeline != "" {
		e.String(5, p.Pipeline)
	}
	if p.Chunk != 0 {
		e.Uint64(6, uint64(p.Chunk))
	}
	if p.Subset != 0 {
		e.Float64(7, p.Subset)
	}
	if p.Train != 0 {
		e.Uint64(8, uint64(p.Train))
	}
	if p.Test != 0 {
		e.Uint64(9, uint64(p.Test))
	}
}

// Unmarshal decodes p, ignoring unknown fields.
func (p *Plan) Unmarshal(d *Decoder) error {
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			p.Algorithm, err = d.String()
		case 2:
			p.Rho, err = d.Float64()
		case 3:
			p.Zeta, err = d.Float64()
		case 4:
			p.Seed, err = d.Uint64()
		case 5:
			p.Pipeline, err = d.String()
		case 6:
			p.Chunk, err = d.Uint32()
		case 7:
			p.Subset, err = d.Float64()
		case 8:
			p.Train, err = d.Uint32()
		case 9:
			p.Test, err = d.Uint32()
		default:
			err = d.Skip(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// JoinAck is the server's reply carrying run configuration. Plan rides
// along as a nested message and is omitted from the wire when zero, so an
// ack without one is byte for byte the pre-plan encoding.
type JoinAck struct {
	NumClients uint32
	Rounds     uint32
	ModelSize  uint64
	Plan       Plan
}

// Marshal encodes m.
func (m *JoinAck) Marshal(e *Encoder) {
	e.Uint64(1, uint64(m.NumClients))
	e.Uint64(2, uint64(m.Rounds))
	e.Uint64(3, m.ModelSize)
	if m.Plan != (Plan{}) {
		e.Message(4, &m.Plan)
	}
}

// Unmarshal decodes m, ignoring unknown fields.
func (m *JoinAck) Unmarshal(d *Decoder) error {
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.NumClients = v
		case 2:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.Rounds = v
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			m.ModelSize = v
		case 4:
			b, err := d.BytesField()
			if err != nil {
				return err
			}
			if err := m.Plan.Unmarshal(NewDecoder(b)); err != nil {
				return err
			}
		default:
			if err := d.Skip(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// GlobalModel carries the global weights w^{t+1} from server to clients.
// Rho, when positive, is the penalty ρ_t the clients must use this round —
// the channel through which the adaptive-penalty extension (paper §V,
// item 2) keeps server and clients consistent. Version is the aggregation
// counter of the model (how many server updates produced it); clients echo
// it back as LocalUpdate.BaseVersion so the server can attribute staleness
// under buffered/asynchronous scheduling. CohortSize reports how many
// clients were scheduled for the round that this model opens.
type GlobalModel struct {
	Round      uint32
	Weights    []float64
	Final      bool
	Rho        float64
	Version    uint64
	CohortSize uint32
	// WeightsP, when non-nil, carries the weights in a compressed payload
	// encoding instead of the dense Weights field (downlink compression).
	// Receivers densify it back into Weights before training.
	WeightsP *Payload

	// received is the payload Unmarshal decodes field 7 into. It lives as
	// long as m does, so a message that is decoded into again and again
	// keeps one payload and its code buffer; WeightsP points at it only
	// while the current message carries the field.
	received *Payload
}

// Reset clears m for reuse, keeping the weight buffer's capacity and the
// emptied receive payload. WeightsP itself is dropped: a stale payload
// surviving into a message that omits field 7 would densify last round's
// weights.
func (m *GlobalModel) Reset() {
	*m = GlobalModel{Weights: m.Weights[:0], received: m.received.recycled()}
}

// Marshal encodes m. When WeightsP is set it replaces the dense Weights
// block on the wire, so byte accounting reflects the compressed size.
func (m *GlobalModel) Marshal(e *Encoder) {
	e.Uint64(1, uint64(m.Round))
	if m.WeightsP == nil {
		e.Doubles(2, m.Weights)
	}
	e.Bool(3, m.Final)
	if m.Rho > 0 {
		e.Float64(4, m.Rho)
	}
	if m.Version > 0 {
		e.Uint64(5, m.Version)
	}
	if m.CohortSize > 0 {
		e.Uint64(6, uint64(m.CohortSize))
	}
	if m.WeightsP != nil {
		m.WeightsP.EncodeInto(e, 7)
	}
}

// Unmarshal decodes m, ignoring unknown fields. m is Reset first, so a
// struct reused across messages cannot carry a field the new message
// omits; buffers present in both messages reuse their capacity.
func (m *GlobalModel) Unmarshal(d *Decoder) error {
	m.Reset()
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.Round = v
		case 2:
			v, err := d.DoublesInto(m.Weights)
			if err != nil {
				return err
			}
			m.Weights = v
		case 3:
			v, err := d.Bool()
			if err != nil {
				return err
			}
			m.Final = v
		case 4:
			v, err := d.Float64()
			if err != nil {
				return err
			}
			m.Rho = v
		case 5:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			m.Version = v
		case 6:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.CohortSize = v
		case 7:
			b, err := d.BytesField()
			if err != nil {
				return err
			}
			if m.WeightsP, err = receivePayload(&m.received, b); err != nil {
				return err
			}
		default:
			if err := d.Skip(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// LocalUpdate carries a client's trained parameters to the server. Primal
// is always present (z_p); Dual (λ_p) is populated only by algorithms that
// communicate dual information (ICEADMM) — its absence is precisely
// IIADMM's communication saving.
//
// BaseVersion echoes the GlobalModel.Version the client trained from, the
// staleness anchor of the buffered/asynchronous schedulers. InCohort is
// true when the client actually trained as a scheduled participant; every
// client in this tree sets it, and the field stays in the format so a
// peer's zero-weight, out-of-cohort contribution remains attributable.
type LocalUpdate struct {
	ClientID    uint32
	Round       uint32
	NumSamples  uint64
	Primal      []float64
	Dual        []float64
	Epsilon     float64 // privacy budget used for this release (+Inf = none; a NaN does not decode)
	ComputeSec  float64 // client-side local update time, for instrumentation
	BaseVersion uint64
	InCohort    bool
	// PrimalP, when non-nil, carries the primal in a compressed payload
	// encoding instead of the dense Primal field — the output of the update
	// pipeline's compression stages. The server inverts it back to a dense
	// Primal before the update reaches an Aggregator.
	PrimalP *Payload
	// Control marks this message as a lifecycle signal riding the update
	// channel rather than training data. ControlGoodbye announces a
	// departure; it satisfies the client's update obligation for the round
	// so the server releases the barrier without waiting out a timeout.
	Control uint8
	// RejoinRound, on a goodbye, leases a return slot: the client promises
	// to be reachable again from that round on (0 = gone for good). The
	// scheduler excludes the client until the lease expires.
	RejoinRound uint32
	// TenantID names the federation this update belongs to on a
	// multi-tenant server; ClientID is tenant-local. Zero is the default
	// tenant (backward-compatible: pre-tenancy messages omit the field).
	// A tenant-demuxing transport validates it against the tenant that
	// owns the carrying connection/topic and rejects mismatches.
	TenantID uint32

	// received is the payload Unmarshal decodes field 10 into; see
	// GlobalModel.received.
	received *Payload
}

// Control values carried by LocalUpdate.Control.
const (
	ControlNone    uint8 = 0 // ordinary training update
	ControlGoodbye uint8 = 1 // departure announcement (ClientGoodbye)
)

// Goodbye builds the ClientGoodbye message for the given client and round.
// rejoinRound > 0 leases a return at that round; 0 announces a permanent
// departure. The message carries no model payload and zero weight, so an
// aggregator that sees one by mistake folds nothing.
func Goodbye(client, round uint32, rejoinRound uint32) *LocalUpdate {
	return &LocalUpdate{
		ClientID:    client,
		Round:       round,
		Control:     ControlGoodbye,
		RejoinRound: rejoinRound,
	}
}

// Reset clears m for reuse, keeping the primal and dual buffers'
// capacity and the emptied receive payload. PrimalP itself is dropped for
// the same reason as GlobalModel.Reset: absent-field staleness is a
// correctness bug. A reference to the payload that outlives the Reset
// reads an empty dense vector of dimension 0, which no aggregator folds.
func (m *LocalUpdate) Reset() {
	*m = LocalUpdate{Primal: m.Primal[:0], Dual: m.Dual[:0], received: m.received.recycled()}
}

// Marshal encodes m. An empty Dual is omitted entirely, and a compressed
// PrimalP replaces the dense Primal block, so the byte size reflects the
// algorithm's (and pipeline's) true communication volume.
func (m *LocalUpdate) Marshal(e *Encoder) {
	e.Uint64(1, uint64(m.ClientID))
	e.Uint64(2, uint64(m.Round))
	e.Uint64(3, m.NumSamples)
	if m.PrimalP == nil {
		e.Doubles(4, m.Primal)
	}
	if len(m.Dual) > 0 {
		e.Doubles(5, m.Dual)
	}
	e.Float64(6, m.Epsilon)
	e.Float64(7, m.ComputeSec)
	if m.BaseVersion > 0 {
		e.Uint64(8, m.BaseVersion)
	}
	if m.InCohort {
		e.Bool(9, m.InCohort)
	}
	if m.PrimalP != nil {
		m.PrimalP.EncodeInto(e, 10)
	}
	if m.Control != ControlNone {
		e.Uint64(11, uint64(m.Control))
	}
	if m.RejoinRound > 0 {
		e.Uint64(12, uint64(m.RejoinRound))
	}
	if m.TenantID > 0 {
		e.Uint64(13, uint64(m.TenantID))
	}
}

// Unmarshal decodes m, ignoring unknown fields. m is Reset first (see
// GlobalModel.Unmarshal): reused structs reuse buffer capacity but can
// never leak a previous message's fields.
func (m *LocalUpdate) Unmarshal(d *Decoder) error {
	m.Reset()
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.ClientID = v
		case 2:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.Round = v
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			m.NumSamples = v
		case 4:
			v, err := d.DoublesInto(m.Primal)
			if err != nil {
				return err
			}
			m.Primal = v
		case 5:
			v, err := d.DoublesInto(m.Dual)
			if err != nil {
				return err
			}
			m.Dual = v
		case 6:
			v, err := d.Float64()
			if err != nil {
				return err
			}
			if math.IsNaN(v) {
				return fmt.Errorf("wire: update carries a NaN epsilon")
			}
			m.Epsilon = v
		case 7:
			v, err := d.Float64()
			if err != nil {
				return err
			}
			m.ComputeSec = v
		case 8:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			m.BaseVersion = v
		case 9:
			v, err := d.Bool()
			if err != nil {
				return err
			}
			m.InCohort = v
		case 10:
			b, err := d.BytesField()
			if err != nil {
				return err
			}
			if m.PrimalP, err = receivePayload(&m.received, b); err != nil {
				return err
			}
		case 11:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			if v > 255 {
				return fmt.Errorf("wire: control value %d out of range", v)
			}
			m.Control = uint8(v)
		case 12:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.RejoinRound = v
		case 13:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			m.TenantID = v
		default:
			if err := d.Skip(w); err != nil {
				return err
			}
		}
	}
	return nil
}
