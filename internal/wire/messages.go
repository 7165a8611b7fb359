package wire

import (
	"fmt"
	"math"

	"repro/internal/f16"
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
			o, err := d.nest()
			if err != nil {
				return err
			}
			err = m.Plan.Unmarshal(d)
			d.unnest(o)
			if err != nil {
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
// omits; buffers present in both messages reuse their capacity. A
// compressed payload arrives as WeightsP, in its encoding (UnmarshalDense
// densifies it instead).
func (m *GlobalModel) Unmarshal(d *Decoder) error {
	m.Reset()
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		if f == 7 {
			m.WeightsP, err = receivePayload(&m.received, d)
		} else {
			err = m.field(d, f, w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// UnmarshalDense is the receive form of Unmarshal: a client's decode. A
// float16 payload (field 7, the downlink compression a server sends) is
// densified into Weights as it is read — its codes land in Weights' own
// storage and expand there — so the model arrives dense and m holds no
// code buffer; WeightsP stays nil. Weights reuse their capacity as in
// Unmarshal: a lent vector, or the buffer the message keeps. The values
// are bit for bit those of Unmarshal followed by WeightsP.Densify. The payload must declare its encoding and
// dimension before its codes (Marshal writes them first); a payload in
// another encoding, codes before that declaration or of the wrong length,
// and a message carrying both dense and compressed weights decode to an
// error wrapping ErrBadPayload.
func (m *GlobalModel) UnmarshalDense(d *Decoder) error {
	m.Reset()
	var dense, coded bool
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		dense, coded = dense || f == 2, coded || f == 7
		switch {
		case dense && coded:
			return fmt.Errorf("wire: model carries both dense and compressed weights: %w", ErrBadPayload)
		case f == 7:
			err = m.densify(d)
		default:
			err = m.field(d, f, w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// densify reads the float16 payload field d is at into Weights.
func (m *GlobalModel) densify(d *Decoder) error {
	o, err := d.nest()
	if err != nil {
		return err
	}
	err = m.densifyBody(d)
	d.unnest(o)
	return err
}

// densifyBody is densify within the payload's body. It accepts what
// Payload.Unmarshal accepts of a valid float16 payload, in Marshal's
// order, and refuses the fields of other encodings rather than skip them.
func (m *GlobalModel) densifyBody(d *Decoder) error {
	enc, dim, declared, decoded := EncDense, 0, 0, 0
	m.Weights = m.Weights[:0]
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			enc, declared = Encoding(v), declared|1
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			if v > math.MaxUint32 {
				return fmt.Errorf("wire: payload dimension %d overflows: %w", v, ErrBadPayload)
			}
			dim, declared = int(v), declared|2
		case 9:
			if declared != 3 || enc != EncFloat16 {
				return fmt.Errorf("wire: model codes precede a float16 encoding and dimension: %w", ErrBadPayload)
			}
			n, err := d.length()
			if err != nil {
				return err
			}
			if n != 2*dim {
				return fmt.Errorf("wire: float16 payload has %d code bytes for dim %d: %w", n, dim, ErrBadPayload)
			}
			if cap(m.Weights) < dim {
				m.Weights = make([]float64, dim)
			}
			m.Weights = m.Weights[:dim]
			// The codes are read past the window into the last quarter of
			// Weights' own bytes and expanded front to back in place:
			// value i covers bytes [8i, 8i+8), which end at or before code
			// i+1 (at 6·dim + 2i + 2) for every i < dim, so each code is
			// read before anything overwrites it.
			codes := float64Bytes(m.Weights)[6*dim:]
			if err := d.readRaw(codes); err != nil {
				return err
			}
			f16.Decode(m.Weights, codes)
			decoded = dim
		case 3, 4, 5, 6, 7, 8:
			return fmt.Errorf("wire: model payload carries field %d of another encoding: %w", f, ErrBadPayload)
		default:
			if err := d.Skip(w); err != nil {
				return err
			}
		}
	}
	if enc != EncFloat16 {
		return fmt.Errorf("wire: model payload encoding %v, want float16: %w", enc, ErrBadPayload)
	}
	if decoded != dim {
		return fmt.Errorf("wire: float16 payload has %d values for dim %d: %w", decoded, dim, ErrBadPayload)
	}
	return nil
}

// field decodes one field of m other than its payload (7), whose tag the
// caller has read.
func (m *GlobalModel) field(d *Decoder, f, w int) error {
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
	default:
		return d.Skip(w)
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
		if err := m.field(d, f, w); err != nil {
			return err
		}
	}
	return nil
}

// field decodes one field of m, whose tag Unmarshal has read.
func (m *LocalUpdate) field(d *Decoder, f, w int) error {
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
		p, err := receivePayload(&m.received, d)
		if err != nil {
			return err
		}
		m.PrimalP = p
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
	return nil
}

// UnmarshalWindowed decodes m like Unmarshal, except the dense primal: when
// its field arrives, primal is called with the number of values it holds
// and reads them off d itself (PackedDoubles' contract), so a server can
// fold the vector window by window as it arrives and m never holds it.
// Marshal writes ClientID, Round and NumSamples before the primal, and they
// must come first, and stay: primal finds them in m, and a message that
// repeats one after the primal is refused. So is one that lacks the dense
// primal, repeats it, or carries a dual or a compressed primal, at that
// field's tag, before any of its bytes are read.
func (m *LocalUpdate) UnmarshalWindowed(d *Decoder, primal func(n int) error) error {
	m.Reset()
	const head = 1<<1 | 1<<2 | 1<<3 // ClientID, Round, NumSamples
	seen := 0
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch {
		case f == 4 && seen&(1<<4) != 0:
			return fmt.Errorf("wire: update carries a second primal")
		case f == 4 && seen&head != head:
			return fmt.Errorf("wire: update's primal precedes its client, round or sample count")
		case f < 4 && seen&(1<<4) != 0:
			return fmt.Errorf("wire: update repeats field %d after its primal", f)
		case f == 4:
			n, err := d.PackedDoubles()
			if err != nil {
				return err
			}
			if err := primal(n); err != nil {
				return err
			}
		case f == 5:
			return fmt.Errorf("wire: windowed update carries a dual")
		case f == 10:
			return fmt.Errorf("wire: windowed update carries a compressed primal, want a dense one")
		default:
			if err := m.field(d, f, w); err != nil {
				return err
			}
		}
		if f < 5 {
			seen |= 1 << f
		}
	}
	if seen&(1<<4) == 0 {
		return fmt.Errorf("wire: update carries no primal")
	}
	return nil
}
