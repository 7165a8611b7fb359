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
	"repro/internal/tensor"
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

	sem chan struct{} // bounds concurrent training among in-process clients
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
	// The replica's own vector is w0: no copy, and the SetParams loading it
	// is a no-op.
	model := sequentialOf(factory())
	c, err := newRunClient(cfg, id, master.Split(), model, nn.ParamVector(model), data)
	if err != nil {
		return err
	}
	return runClient(cfg, c, ct, opts)
}

// newRunClient builds one client of a run: its replica starts at the
// shared w0 and its update pipeline draws from its own stream cr.
func newRunClient(cfg Config, id int, cr *rng.RNG, model nn.Module, w0 []float64, data dataset.Dataset) (ClientAlgorithm, error) {
	pipe, err := NewClientPipeline(cfg, cr)
	if err != nil {
		return nil, err
	}
	nn.SetParams(model, w0)
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
	// wscratch recycles the downlink densify buffer across rounds (gm is
	// dropped at the end of each iteration, so the weights it aliases are
	// dead by the next receive) and across runs via the shared scratch
	// pool — clients copy w before returning from LocalUpdate, so nothing
	// aliases it at exit.
	wscratch := tensor.GetF64(0)
	defer func() { tensor.PutF64(wscratch) }()
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
				if wscratch, err = DecodeGlobalInto(gm, wscratch); err != nil {
					return err
				}
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
	if opts.sem != nil {
		opts.sem <- struct{}{}
	}
	up, err := c.LocalUpdate(int(gm.Round), gm.Weights)
	if opts.sem != nil {
		<-opts.sem
	}
	if err != nil {
		return nil, err
	}
	up.BaseVersion = gm.Version
	if opts.Delay != nil {
		if d := opts.Delay(int(gm.Round)); d > 0 {
			time.Sleep(d)
		}
	}
	if cfg.SubsetFrac > 0 && len(up.Primal) > 0 {
		// LoRA-style partial upload: only the leading subset of the
		// trained vector leaves the client.
		up.PrimalP = BuildSubsetPayload(up.Primal, cfg.SubsetFrac)
		up.Primal = nil
	}
	return up, nil
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
