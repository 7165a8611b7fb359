package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/rpc"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/wire"
)

// ClientOptions tunes RunClient.
type ClientOptions struct {
	// Progress, when non-nil, receives one line per round: "uploaded" for a
	// round this client trained, "re-sent" for a repeated dispatch it
	// answered from memory, and a line per connection loss it rode out.
	Progress io.Writer
	// Delay, when non-nil, injects an artificial delay before the given
	// round's upload — the straggler model of the scheduler benchmarks (a
	// slow device or link, without burning CPU).
	Delay func(round int) time.Duration

	// slots, when non-nil, is the pool of training slots in-process
	// clients share: a client trains only on a slot taken from it, so the
	// pool's size bounds concurrent training (see trainOnSlot).
	slots chan *slot
}

// Resume pacing: a client whose connection drops redials with doubling
// backoff for at most resumeBudget — long enough for a killed server to be
// restarted by hand or by a supervisor, short enough that a federation
// which is really gone does not hold its clients forever.
const (
	resumeBackoffMin = 20 * time.Millisecond
	resumeBackoffMax = time.Second
	resumeBudget     = time.Minute
)

// RunClient runs the client half of a federation: client id of the
// federation cfg describes, training on data, over ct — a transport that
// has already joined the server. It returns when the server's Final
// message arrives. The model replica comes from factory, which must
// initialize deterministically (every party derives the shared w0 from
// it), and the client's private RNG stream is the id-th split of
// cfg.Seed — the same derivation RunWithTransport uses for its in-process
// clients, so a process per client and a goroutine per client walk the
// same trajectory. ct stays the caller's to close.
func RunClient(cfg Config, id int, data dataset.Dataset, factory nn.Factory, ct comm.ClientTransport, opts ClientOptions) error {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	master := rng.New(cfg.Seed)
	for i := 0; i < id; i++ {
		master.Split()
	}
	// The replica's own vector is w0: no copy.
	model := sequentialOf(factory())
	c, err := newRunClient(cfg, id, master.Split(), model, nn.ParamVector(model), data)
	if err != nil {
		return err
	}
	return runClient(cfg, c, ct, opts)
}

// newRunClient builds one client of a run over its update pipeline, which
// draws from its own stream cr. The client's vectors are model's, and
// model is its own slot until a pool takes it (newSlotPool). Nothing
// loads w0 into the parameters here: FedAvg and IIADMM overwrite them
// with the received model at the start of every LocalUpdate, and ICEADMM
// loads w0 itself.
func newRunClient(cfg Config, id int, cr *rng.RNG, model nn.Module, w0 []float64, data dataset.Dataset) (ClientAlgorithm, error) {
	pipe, err := NewClientPipeline(cfg, cr)
	if err != nil {
		return nil, err
	}
	return NewClient(cfg, id, model, data, w0, pipe, cr)
}

// runClient is the client loop. Each received non-final model obliges
// exactly one uploaded update, stamped with the model version it was
// trained from. A model the client has already trained on — same round,
// same version: a restarted server finishing the round its predecessor
// died in — is answered by re-sending that update, never by training
// twice, which is what makes a repeated dispatch harmless. Over a
// comm.SessionResumer a dropped connection is redialed (see resumeSession)
// and the loop carries on; what the server still wants from this client it
// will ask for again.
func runClient(cfg Config, c ClientAlgorithm, ct comm.ClientTransport, opts ClientOptions) error {
	// The transport decodes every downlink dense, a float16 one included,
	// into the vector a lending algorithm (FedAvg) supplies, so the client
	// holds no receive buffer; the lend comes before the first receive,
	// which would otherwise size one. Otherwise the transport keeps the
	// buffer.
	if l, ok := c.(downlinkLender); ok {
		ct.ReceiveInto(l.downlinkBuffer())
	}
	// last is the update most recently trained. It may alias the client's
	// state, which stays put until the next LocalUpdate — exactly as long
	// as a repeated dispatch of its round can arrive.
	var last *wire.LocalUpdate
	for {
		gm, err := ct.RecvGlobal()
		if err == nil && gm.Final {
			return nil
		}
		if err == nil {
			repeat := last != nil && gm.Round == last.Round && gm.Version == last.BaseVersion
			if !repeat {
				if last, err = train(cfg, c, gm, opts); err != nil {
					return err
				}
			}
			if err = upload(cfg, ct, last); err == nil && opts.Progress != nil {
				if repeat {
					fmt.Fprintf(opts.Progress, "client %d: round %d re-sent\n", last.ClientID, gm.Round)
				} else {
					fmt.Fprintf(opts.Progress, "client %d: round %d uploaded (%.2fs local compute)\n",
						last.ClientID, gm.Round, last.ComputeSec)
				}
			}
		}
		if err != nil {
			cause := err
			if err = resumeSession(ct, cause); err != nil {
				return err
			}
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "connection lost (%v); session resumed\n", cause)
			}
		}
	}
}

// train runs one local update from the received model and returns the
// update, ready to upload.
func train(cfg Config, c ClientAlgorithm, gm *wire.GlobalModel, opts ClientOptions) (*wire.LocalUpdate, error) {
	if gm.Rho > 0 {
		if rs, ok := c.(interface{ SetRho(float64) }); ok {
			rs.SetRho(gm.Rho)
		}
	}
	up, err := trainOnSlot(c, int(gm.Round), gm.Weights, opts.slots)
	if err != nil {
		return nil, err
	}
	up.BaseVersion = gm.Version
	if opts.Delay != nil {
		if d := opts.Delay(int(gm.Round)); d > 0 {
			time.Sleep(d)
		}
	}
	if cfg.SubsetFrac > 0 {
		// LoRA-style partial upload: only the leading prefix of the
		// trained vector leaves the client (subset.go).
		up.Primal = up.Primal[:subsetSpan(len(up.Primal), cfg.SubsetFrac)]
	}
	return up, nil
}

// slotted is a client whose model vectors a pooled slot can be bound to:
// every algorithm built on BaseClient.
type slotted interface{ base() *BaseClient }

// trainOnSlot runs c's LocalUpdate, on a slot from slots when the clients
// share a pool (every client of one is slotted): the slot is bound to the
// client's vectors for the call and goes back to the pool after it.
func trainOnSlot(c ClientAlgorithm, round int, w []float64, slots chan *slot) (*wire.LocalUpdate, error) {
	if slots == nil {
		return c.LocalUpdate(round, w)
	}
	b := c.(slotted).base()
	s := <-slots
	s.model.Bind(b.params, b.grads)
	b.slot = s
	defer func() {
		b.slot = nil
		slots <- s
	}()
	return c.LocalUpdate(round, w)
}

// newSlotPool takes the own slots of the first min(n, len(clients))
// clients as the run's pool and leaves every client without one, so that
// each trains only on a slot it takes from the pool. The other clients'
// replicas, never trained, held nothing but layer headers: their vectors
// stay the clients'. It refuses a model with a layer that keeps state
// from one step to the next (nn.StatefulLayer), which a shared slot would
// pass from client to client.
func newSlotPool(clients []*BaseClient, n int) (chan *slot, error) {
	n = min(n, len(clients))
	slots := make(chan *slot, n)
	for i, c := range clients {
		if l := nn.StatefulLayer(c.slot.model); l != nil {
			return nil, fmt.Errorf("core: model layer %T keeps state between training steps, which in-process clients sharing %d training slots would pass on to each other; run each client in its own process (RunClient)", l, n)
		}
		if i < n {
			slots <- c.slot
		}
		c.slot = nil
	}
	return slots, nil
}

// upload sends up, leaving it intact for a possible re-send. In streaming
// mode the chunks carry the vector — back to back at the transport's pace,
// then one ack once the server has folded them all, which waits as long as
// the slowest cohort member needs (every transport here is reliable, so
// the ack is late, never lost; a dead connection surfaces as an error
// instead) — and a slim update settles the round's obligation through the
// ordinary gather.
func upload(cfg Config, ct comm.ClientTransport, up *wire.LocalUpdate) error {
	if cfg.StreamChunk == 0 {
		return ct.SendUpdate(up)
	}
	cs, ok := ct.(comm.ChunkSender)
	if !ok {
		return fmt.Errorf("core: transport %T cannot stream chunked uploads", ct)
	}
	if err := comm.StreamUpload(cs, up, cfg.StreamChunk); err != nil {
		return err
	}
	primal, primalP := up.Primal, up.PrimalP
	up.Primal, up.PrimalP = nil, nil
	err := ct.SendUpdate(up)
	up.Primal, up.PrimalP = primal, primalP
	return err
}

// resumeSession rides out a dropped connection: when cause is a connection
// dying under the client (not a peer that is there and talking nonsense)
// and the transport can resume its session, it redials until the splice
// lands, backing off while the server is down (rpc.ErrResumeRetryable — the
// signature of a resume racing a server restart). Anything else, or a
// server still gone after resumeBudget, gives up with cause.
func resumeSession(ct comm.ClientTransport, cause error) error {
	sr, ok := ct.(comm.SessionResumer)
	var ne net.Error
	if !ok || !(errors.Is(cause, io.EOF) || errors.Is(cause, io.ErrUnexpectedEOF) || errors.As(cause, &ne)) {
		return cause
	}
	deadline := time.Now().Add(resumeBudget)
	for delay := resumeBackoffMin; ; delay = min(2*delay, resumeBackoffMax) {
		err := sr.Resume()
		if err == nil {
			return nil
		}
		if !errors.Is(err, rpc.ErrResumeRetryable) || time.Now().After(deadline) {
			return fmt.Errorf("%w (session not resumed: %v)", cause, err)
		}
		time.Sleep(delay)
	}
}
