package core

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/wire"
)

// ClientAlgorithm is the analog of APPFL's BaseClient: given the broadcast
// global model it performs local training on private data and produces the
// update to upload. User-defined algorithms implement LocalUpdate the same
// way APPFL users override BaseClient.update().
//
// The returned update aliases the client's own state (FedAvg and IIADMM
// release the client's own parameter vector, which they train in place;
// ICEADMM hands out copies of z and λ in buffers it reuses), so it is
// valid until the next LocalUpdate:
// upload or copy it before training again. Every transport has serialized
// an update by the time SendUpdate returns, which is what lets the round
// loops skip a per-round copy of the model.
type ClientAlgorithm interface {
	LocalUpdate(round int, w []float64) (*wire.LocalUpdate, error)
}

// downlinkLender is a client algorithm that reads the w it is handed only
// before its first gradient, so the client loop has every model decoded
// straight into a vector the algorithm already holds (comm's ReceiveInto)
// instead of a receive buffer of its own. FedAvg lends; the ADMM clients
// read w all round and do not.
type downlinkLender interface {
	downlinkBuffer() []float64
}

// BaseClient carries the state every client algorithm shares: the
// client's model vectors, the private dataset, the configured update
// pipeline. It mirrors the Python BaseClient class.
//
// A client owns its model's two flat vectors and trains in them: the
// iterate an algorithm updates is the parameter vector, the gradient it
// reads the gradient vector, so a step copies nothing into or out of the
// layers. The layers themselves, with their workspaces, are a training
// slot's (see slot): a client built over a model keeps that model as its
// own slot, while the clients of an in-process run share a pool of
// MaxParallel slots and hold one only for the LocalUpdate it serves.
//
// Pipe is the client's whole privacy path: gradient clipping and
// per-round objective noise enter through Pipe.GradHook
// during training, and every release passes through Pipe.Apply (output
// noise, then compression) before it is installed in the LocalUpdate.
type BaseClient struct {
	ID     int
	Data   dataset.Dataset
	Loader *dataset.Loader
	// Pipe is the ordered privacy + compression stack of this client.
	Pipe *pipeline.Pipeline
	// Sens derives the DP sensitivity Δ̄ the noise stages consume; it is
	// recomputed when hyperparameters change (e.g. adaptive ρ).
	Sens dp.SensitivityRule

	dim int
	// params and grads are the client's model, laid out like
	// nn.ParamVector; the slot it trains on is bound to them.
	params, grads []float64
	slot          *slot // nil while a pooled client waits for one
}

// slot is a training slot: a model replica — its layers and their
// workspaces, the loss's logit gradient — and the scratch a LocalUpdate
// uses only while it runs. A slot is bound to one client's vectors at a
// time (nn.Sequential.Bind), so any client may train on it: nothing a
// slot holds outlives the LocalUpdate that used it.
type slot struct {
	model *nn.Sequential
	loss  nn.CrossEntropyLoss
	// scratch is one model-sized buffer: FedAvg's momentum, fullGrad's
	// accumulator, IIADMM's densified release.
	scratch []float64
}

// scratchFor returns the slot's scratch, n long, allocating it on first use.
func (s *slot) scratchFor(n int) []float64 {
	if cap(s.scratch) < n {
		s.scratch = make([]float64, n)
	}
	return s.scratch[:n]
}

// newBaseClient wires the shared client state over model, which becomes
// the client's own slot and whose vectors become the client's.
func newBaseClient(id int, model nn.Module, ds dataset.Dataset, batch int, pipe *pipeline.Pipeline, sens dp.SensitivityRule, r *rng.RNG) BaseClient {
	if pipe == nil {
		pipe, _ = pipeline.New() // identity
	}
	seq := sequentialOf(model)
	return BaseClient{
		ID:     id,
		Data:   ds,
		Loader: dataset.NewLoader(ds, batch, true, r),
		Pipe:   pipe,
		Sens:   sens,
		dim:    nn.NumParams(seq),
		params: nn.ParamVector(seq),
		grads:  nn.GradVector(seq),
		slot:   &slot{model: seq},
	}
}

// base exposes the shared state to the slot pool (see trainOnSlot).
func (c *BaseClient) base() *BaseClient { return c }

// sequentialOf returns m as the nn.Sequential whose vectors a client
// trains in, wrapping any other Module in one.
func sequentialOf(m nn.Module) *nn.Sequential {
	if s, ok := m.(*nn.Sequential); ok {
		return s
	}
	return nn.NewSequential(m)
}

// beginRound prepares per-round pipeline state: in objective-perturbation
// mode the pipeline draws the round's noise vector b, which gradAt then
// adds to every gradient (the ⟨b, z⟩ term of the perturbed objective).
func (c *BaseClient) beginRound() {
	c.Pipe.BeginRound(c.dim, c.Sens.Sensitivity())
}

// releasePrimal runs the outbound pipeline over v and installs the result
// into m: a dense result goes out as the legacy Primal block, a compressed
// one as the PrimalP payload. v is adopted and may be transformed in place.
func (c *BaseClient) releasePrimal(v []float64, m *wire.LocalUpdate) error {
	u := pipeline.NewDense(v)
	if err := c.Pipe.Apply(u, c.Sens.Sensitivity()); err != nil {
		return fmt.Errorf("core: client %d release: %w", c.ID, err)
	}
	if u.Enc == wire.EncDense {
		m.Primal = u.Dense
	} else {
		m.PrimalP = u
	}
	m.Epsilon = c.Pipe.Epsilon()
	return nil
}

// gradAt computes the mean gradient of the loss over batch b at the
// client's parameters — the vector the caller trains in place — post-
// processed by the pipeline's training-time stages (L2 clipping, objective
// noise). The returned slice is the client's gradient vector, overwritten
// by the next step.
func (c *BaseClient) gradAt(b dataset.Batch) []float64 {
	g := c.batchGrad(b)
	c.Pipe.GradHook(g)
	return g
}

// batchGrad returns the client's gradient vector holding the mean
// gradient over batch b at its current parameters, before any pipeline
// stage.
func (c *BaseClient) batchGrad(b dataset.Batch) []float64 {
	s := c.slot
	_, d := s.loss.Loss(s.model.Forward(b.X), b.Labels)
	nn.BackwardParams(s.model, d)
	return c.grads
}

// fullGrad computes the clipped full-dataset mean gradient at the client's
// parameters by accumulating batch gradients weighted by batch size
// (ICEADMM evaluates gradients on all local data points, Section IV-B).
// The returned slice is the slot's scratch, valid while the LocalUpdate
// runs.
func (c *BaseClient) fullGrad() []float64 {
	sum := c.slot.scratchFor(c.dim)
	clear(sum)
	n := 0
	c.Loader.Reset()
	for {
		b, ok := c.Loader.Next()
		if !ok {
			break
		}
		bs := len(b.Labels)
		// Accumulate the unclipped batch mean scaled back to a sum.
		for i, g := range c.batchGrad(b) {
			sum[i] += g * float64(bs)
		}
		n += bs
	}
	for i := range sum {
		sum[i] /= float64(n)
	}
	c.Pipe.GradHook(sum)
	return sum
}

// FedAvgClient runs L epochs of mini-batch SGD with momentum from the
// broadcast weights (the paper's FedAvg local solver, §IV-B) and uploads
// the resulting parameters through the update pipeline.
type FedAvgClient struct {
	BaseClient
	LR       float64
	Momentum float64
	L        int
}

// NewFedAvgClient constructs the client over its update pipeline.
func NewFedAvgClient(id int, model nn.Module, ds dataset.Dataset, cfg Config, pipe *pipeline.Pipeline, r *rng.RNG) *FedAvgClient {
	sens := dp.FedAvgSensitivity{Clip: pipe.ClipBound(), LR: cfg.LR}
	bc := newBaseClient(id, model, ds, cfg.BatchSize, pipe, sens, r)
	return &FedAvgClient{
		BaseClient: bc,
		LR:         cfg.LR,
		Momentum:   cfg.Momentum,
		L:          cfg.LocalSteps,
	}
}

// downlinkBuffer lends the client's gradient vector to the receive:
// LocalUpdate reads w only to copy it into the parameters, before the
// first Backward overwrites every gradient, and the update it releases
// aliases the parameters, never the gradient. The vector is the client's,
// not a slot's, so the lend holds while the client waits for a slot.
func (c *FedAvgClient) downlinkBuffer() []float64 {
	return c.grads[:c.dim:c.dim]
}

// LocalUpdate trains locally and releases the parameters through the
// pipeline.
func (c *FedAvgClient) LocalUpdate(round int, w []float64) (*wire.LocalUpdate, error) {
	if len(w) != c.dim {
		return nil, fmt.Errorf("core: client %d got %d weights, model is %d", c.ID, len(w), c.dim)
	}
	start := time.Now()
	c.beginRound()
	z := c.params
	copy(z, w)
	// A fresh optimizer per round, as APPFL instantiates one: the first
	// step's velocity is m·0 + g, the product hoisted — the operations a
	// zeroed buffer would run — and it is stored only for a step to come,
	// in the slot's scratch: a round of one step never touches it.
	steps, step := c.L*c.Loader.Batches(), 0
	var veloc []float64
	if steps > 1 {
		veloc = c.slot.scratchFor(c.dim)
	}
	m0 := c.Momentum * 0
	for l := 0; l < c.L; l++ {
		c.Loader.Reset()
		for {
			b, ok := c.Loader.Next()
			if !ok {
				break
			}
			g := c.gradAt(b)
			step++
			switch {
			case step > 1:
				v := veloc[:len(z)]
				for i := range z {
					v[i] = c.Momentum*v[i] + g[i]
					z[i] -= c.LR * v[i]
				}
			case steps > 1:
				v := veloc[:len(z)]
				for i := range z {
					v[i] = m0 + g[i]
					z[i] -= c.LR * v[i]
				}
			default:
				for i := range z {
					z[i] -= c.LR * (m0 + g[i])
				}
			}
		}
	}
	m := &wire.LocalUpdate{
		ClientID:   uint32(c.ID),
		Round:      uint32(round),
		NumSamples: uint64(c.Data.Len()),
		InCohort:   true,
	}
	// z is the client's parameter vector and restarts from w every round,
	// so it is released in place: no copy.
	if err := c.releasePrimal(z, m); err != nil {
		return nil, err
	}
	m.ComputeSec = time.Since(start).Seconds()
	return m, nil
}

// ICEADMMClient implements the baseline of Zhou & Li (2021): L joint
// primal+dual local iterations using full-batch gradients, uploading both
// z_p and λ_p every round. Its persistent primal, which does not reset to
// w, is the client's parameter vector.
type ICEADMMClient struct {
	BaseClient
	Rho, Zeta  float64
	L          int
	FreezeDual bool

	lambda []float64
	// zOut and dualOut are the copies of z and λ an update carries: both
	// persist across rounds (and the pipeline may transform the primal in
	// place), so they cannot be released themselves.
	zOut, dualOut []float64
}

// NewICEADMMClient constructs the client; z starts from w0 and λ from
// zero, the shared initialization.
func NewICEADMMClient(id int, model nn.Module, ds dataset.Dataset, cfg Config, w0 []float64, pipe *pipeline.Pipeline, r *rng.RNG) *ICEADMMClient {
	sens := dp.IADMMSensitivity{Clip: pipe.ClipBound(), Rho: cfg.Rho, Zeta: cfg.Zeta}
	bc := newBaseClient(id, model, ds, cfg.BatchSize, pipe, sens, r)
	c := &ICEADMMClient{
		BaseClient: bc,
		Rho:        cfg.Rho,
		Zeta:       cfg.Zeta,
		L:          cfg.LocalSteps,
		FreezeDual: cfg.FreezeDual,
	}
	copy(c.params, w0)
	c.lambda = make([]float64, len(w0))
	return c
}

// SetRho installs a server-broadcast penalty (adaptive-ρ extension) and
// recomputes the DP sensitivity.
func (c *ICEADMMClient) SetRho(rho float64) {
	c.Rho = rho
	c.Sens = dp.IADMMSensitivity{Clip: c.Pipe.ClipBound(), Rho: rho, Zeta: c.Zeta}
}

// LocalUpdate runs the joint primal/dual loop (Eq. 4 then Eq. 3c, L times)
// and uploads both vectors, releasing the primal through the pipeline.
func (c *ICEADMMClient) LocalUpdate(round int, w []float64) (*wire.LocalUpdate, error) {
	if len(w) != c.dim {
		return nil, fmt.Errorf("core: client %d got %d weights, model is %d", c.ID, len(w), c.dim)
	}
	start := time.Now()
	c.beginRound()
	step := 1.0 / (c.Rho + c.Zeta)
	z := c.params
	for l := 0; l < c.L; l++ {
		g := c.fullGrad()
		for i := range z {
			z[i] -= step * (g[i] - c.lambda[i] - c.Rho*(w[i]-z[i]))
		}
		if !c.FreezeDual {
			for i := range c.lambda {
				c.lambda[i] += c.Rho * (w[i] - z[i])
			}
		}
	}
	c.dualOut = append(c.dualOut[:0], c.lambda...)
	c.zOut = append(c.zOut[:0], z...)
	m := &wire.LocalUpdate{
		ClientID:   uint32(c.ID),
		Round:      uint32(round),
		NumSamples: uint64(c.Data.Len()),
		Dual:       c.dualOut,
		InCohort:   true,
	}
	if err := c.releasePrimal(c.zOut, m); err != nil {
		return nil, err
	}
	m.ComputeSec = time.Since(start).Seconds()
	return m, nil
}

// IIADMMClient implements ClientUpdate of the paper's Algorithm 1:
// initialize z ← w (line 11), run L epochs of mini-batch proximal steps
// (line 16), perform one dual update (line 21), and upload only the primal.
//
// Under differential privacy the dual update uses the *released* (noised)
// primal, so the server's mirror dual (line 6) remains bit-identical to the
// client's — the invariant that lets IIADMM skip dual communication.
type IIADMMClient struct {
	BaseClient
	Rho, Zeta  float64
	L          int
	FreezeDual bool

	lambda []float64
}

// NewIIADMMClient constructs the client with λ initialized to zero.
func NewIIADMMClient(id int, model nn.Module, ds dataset.Dataset, cfg Config, pipe *pipeline.Pipeline, r *rng.RNG) *IIADMMClient {
	sens := dp.IADMMSensitivity{Clip: pipe.ClipBound(), Rho: cfg.Rho, Zeta: cfg.Zeta}
	bc := newBaseClient(id, model, ds, cfg.BatchSize, pipe, sens, r)
	c := &IIADMMClient{
		BaseClient: bc,
		Rho:        cfg.Rho,
		Zeta:       cfg.Zeta,
		L:          cfg.LocalSteps,
		FreezeDual: cfg.FreezeDual,
	}
	c.lambda = make([]float64, c.dim)
	return c
}

// Lambda exposes the client dual for mirror-consistency testing.
func (c *IIADMMClient) Lambda() []float64 { return c.lambda }

// SetRho installs a server-broadcast penalty (adaptive-ρ extension). The
// DP sensitivity Δ̄ = 2C/(ρ+ζ) is recomputed so the noise scale tracks the
// new penalty automatically.
func (c *IIADMMClient) SetRho(rho float64) {
	c.Rho = rho
	c.Sens = dp.IADMMSensitivity{Clip: c.Pipe.ClipBound(), Rho: rho, Zeta: c.Zeta}
}

// LocalUpdate implements lines 10–22 of Algorithm 1.
func (c *IIADMMClient) LocalUpdate(round int, w []float64) (*wire.LocalUpdate, error) {
	if len(w) != c.dim {
		return nil, fmt.Errorf("core: client %d got %d weights, model is %d", c.ID, len(w), c.dim)
	}
	start := time.Now()
	c.beginRound()
	z := c.params
	copy(z, w) // line 11: z^{1,1} ← w^{t+1}
	step := 1.0 / (c.Rho + c.Zeta)
	for l := 0; l < c.L; l++ { // lines 13–19
		c.Loader.Reset() // line 12: split I_p into batches (reshuffled)
		for {
			b, ok := c.Loader.Next()
			if !ok {
				break
			}
			g := c.gradAt(b)   // line 15
			for i := range z { // line 16
				z[i] -= step * (g[i] - c.lambda[i] - c.Rho*(w[i]-z[i]))
			}
		}
	}
	m := &wire.LocalUpdate{ // line 22: primal only
		ClientID:   uint32(c.ID),
		Round:      uint32(round),
		NumSamples: uint64(c.Data.Len()),
		InCohort:   true,
	}
	// Line 20. z is the client's parameter vector and restarts from w
	// every round, so it is released in place, as FedAvgClient's is: no
	// copy.
	if err := c.releasePrimal(z, m); err != nil {
		return nil, err
	}
	if !c.FreezeDual {
		// Line 21 uses the *released* primal so the server mirror stays
		// bit-identical. With a compression stage the release is the
		// server-side reconstruction of the payload, densified into the
		// slot's scratch.
		rel := m.Primal
		if m.PrimalP != nil {
			var err error
			if rel, err = m.PrimalP.Densify(c.slot.scratchFor(c.dim)); err != nil {
				return nil, fmt.Errorf("core: client %d released payload: %w", c.ID, err)
			}
		}
		for i := range c.lambda { // line 21, with the released primal
			c.lambda[i] += c.Rho * (w[i] - rel[i])
		}
	}
	m.ComputeSec = time.Since(start).Seconds()
	return m, nil
}

// NewClient constructs the client algorithm for cfg over its pipeline.
func NewClient(cfg Config, id int, model nn.Module, ds dataset.Dataset, w0 []float64, pipe *pipeline.Pipeline, r *rng.RNG) (ClientAlgorithm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Algorithm {
	case AlgoFedAvg:
		return NewFedAvgClient(id, model, ds, cfg, pipe, r), nil
	case AlgoICEADMM:
		return NewICEADMMClient(id, model, ds, cfg, w0, pipe, r), nil
	case AlgoIIADMM:
		return NewIIADMMClient(id, model, ds, cfg, pipe, r), nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", cfg.Algorithm)
	}
}
