package core

import (
	"fmt"
	"math"

	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/wire"
)

// DefaultPipeline is the update stack WithDefaults gives a Config whose
// Pipeline is empty: the gradient clip at C = 1, no noise, a dense release.
const DefaultPipeline = "clip:1"

// LaplacePipeline is the spec of the default stack with Laplace output
// perturbation at budget eps > 0 appended. eps = +Inf is the non-private
// default stack itself: no Laplace stage, so no RNG stream is split from
// the client's and every later draw stays where it was.
func LaplacePipeline(eps float64) string {
	if math.IsInf(eps, 1) {
		return DefaultPipeline
	}
	return fmt.Sprintf("%s,laplace:%g", DefaultPipeline, eps)
}

// stack builds cfg's update pipeline. r is the client's RNG: each
// randomized stage splits one child stream from it, in stack order (one
// split per noise stage, none for the non-private default stack). r ==
// nil builds the server-side, inverse-only form.
func (c Config) stack(r *rng.RNG) (*pipeline.Pipeline, error) {
	specs, err := pipeline.Parse(c.WithDefaults().Pipeline)
	if err != nil {
		return nil, err
	}
	return specs.Build(r)
}

// NewClientPipeline builds one client's update pipeline from cfg, drawing
// its randomized stages' streams from the client RNG r.
func NewClientPipeline(cfg Config, r *rng.RNG) (*pipeline.Pipeline, error) {
	p, err := cfg.stack(r)
	if err != nil {
		return nil, err
	}
	p.SetObjective(cfg.DPMode == DPModeObjective)
	return p, nil
}

// NewServerPipeline builds the server-side (inverse-only) form of cfg's
// pipeline: no RNG streams are consumed, and the result can only Invert.
func NewServerPipeline(cfg Config) (*pipeline.Pipeline, error) {
	return cfg.stack(nil)
}

// EncodeDownlinkF16Into replaces gm's dense weights with a float16 payload
// — the Config.DownlinkF16 broadcast compression — in a caller-owned code
// buffer. The dense slice is left untouched (the caller may be reusing
// it); gm carries only the payload. codes is reused when its capacity
// suffices and the (possibly grown) buffer is returned, so a steady-state
// broadcast loop encodes the downlink without an O(dim) allocation per
// round. The returned buffer is aliased by gm.WeightsP — the caller may
// recycle it only once the transport has serialized gm (every transport
// serializes inside SendTo).
func EncodeDownlinkF16Into(gm *wire.GlobalModel, codes []byte) ([]byte, error) {
	codes, err := pipeline.EncodeFloat16(gm.Weights, codes)
	if err != nil {
		return codes, err
	}
	gm.WeightsP = &wire.Payload{Enc: wire.EncFloat16, Dim: uint32(len(gm.Weights)), Codes: codes}
	gm.Weights = nil
	return codes, nil
}

// DecodeGlobal densifies a compressed weights payload back into Weights,
// for a GlobalModel decoded with Unmarshal. Dense models pass through
// untouched. A transport's RecvGlobal needs none of this: it decodes the
// downlink in its receive form (wire.GlobalModel.UnmarshalDense), which
// densifies a float16 payload into Weights as it is read.
func DecodeGlobal(gm *wire.GlobalModel) error {
	if gm.WeightsP == nil {
		return nil
	}
	w, err := gm.WeightsP.Densify(nil)
	if err != nil {
		return err
	}
	gm.Weights, gm.WeightsP = w, nil
	return nil
}

// DecodeUpdates runs the server half of the pipeline over a gathered
// batch: every compressed primal payload is inverted through inv (reverse
// stack order) back to a dense Primal before the batch reaches an
// Aggregator. Dense (legacy-encoded) updates pass through untouched, and a
// payload whose encoding does not match the configured stack is rejected
// with a typed error — a client cannot smuggle an unconfigured encoding.
//
// dim is the model dimension the server expects. It is enforced *before*
// inversion: densifying is an O(Dim) allocation, so an adversarial payload
// declaring a huge Dim must be rejected up front, not after the server has
// tried to materialize it.
//
// workers is the fan-out width (0 = GOMAXPROCS, 1 = serial): each update's
// inversion is independent O(dim) work, so the batch decodes in parallel
// on the shared aggregation pool. Stage Invert implementations are
// stateless, and the reported error is always the lowest-index failure,
// so the result and the error are identical at every width.
func DecodeUpdates(batch []*wire.LocalUpdate, inv *pipeline.Pipeline, dim, workers int) error {
	// Dimension screening stays serial and up front: it is O(batch) and
	// must reject adversarial payloads before any O(dim) work begins.
	for _, u := range batch {
		if u == nil || u.PrimalP == nil {
			continue
		}
		if int(u.PrimalP.Dim) != dim {
			return fmt.Errorf("core: client %d payload dimension %d, model is %d: %w",
				u.ClientID, u.PrimalP.Dim, dim, wire.ErrBadPayload)
		}
	}
	decode := func(u *wire.LocalUpdate) error {
		if u == nil || u.PrimalP == nil {
			return nil
		}
		if u.PrimalP.Enc != wire.EncDense {
			// The payload densifies into the vector the message kept from
			// its previous life, which Primal then carries like a dense
			// upload's.
			u.PrimalP.Dense = u.Primal[:0]
		}
		if err := inv.Invert(u.PrimalP); err != nil {
			return fmt.Errorf("core: client %d update: %w", u.ClientID, err)
		}
		u.Primal = u.PrimalP.Dense
		u.PrimalP = nil
		return nil
	}
	if w := resolveWorkers(workers); w > 1 && len(batch) > 1 {
		errs := make([]error, len(batch))
		eachRun(len(batch), w, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				errs[i] = decode(batch[i])
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, u := range batch {
		if err := decode(u); err != nil {
			return err
		}
	}
	return nil
}

// EnableFusedFold wires the fused invert+fold fast path: when the
// server-side pipeline's whole inverse reduces to a per-coordinate decode
// (pipeline.Fused) and the aggregator supports folding encoded sources
// (FedAvgServer, BufferedAggregator), the aggregator is handed the fused
// stage and the caller should screen batches with DecodeUpdatesFused
// instead of densifying them through DecodeUpdates. Returns false when
// either side cannot fuse — the two-pass path remains the fallback, and
// both paths produce bit-identical models.
func EnableFusedFold(agg Aggregator, inv *pipeline.Pipeline) (pipeline.FusedStage, bool) {
	fs, ok := inv.Fused()
	if !ok {
		return nil, false
	}
	f, ok := agg.(interface{ setFusedStage(pipeline.FusedStage) })
	if !ok {
		return nil, false
	}
	f.setFusedStage(fs)
	return fs, true
}

// DecodeUpdatesFused is the fused-path counterpart of DecodeUpdates: it
// validates every compressed payload — declared dimension, the exact
// encoding the configured stack produces, and structural integrity — but
// leaves the payloads encoded for the aggregator's fused fold. The same
// anti-smuggling and anti-DoS screens apply (dimension before any O(dim)
// work, encoding pinned to the stack); the O(dim) decode itself moves
// into the fold kernels, where it costs no extra sweep.
func DecodeUpdatesFused(batch []*wire.LocalUpdate, fs pipeline.FusedStage, dim int) error {
	for _, u := range batch {
		if u == nil || u.PrimalP == nil {
			continue
		}
		if int(u.PrimalP.Dim) != dim {
			return fmt.Errorf("core: client %d payload dimension %d, model is %d: %w",
				u.ClientID, u.PrimalP.Dim, dim, wire.ErrBadPayload)
		}
		if u.PrimalP.Enc != fs.FusedEnc() {
			return fmt.Errorf("core: client %d update arrived %s-encoded but the configured stack produces %s: %w",
				u.ClientID, u.PrimalP.Enc, fs.FusedEnc(), pipeline.ErrSpec)
		}
		if err := u.PrimalP.Validate(); err != nil {
			return fmt.Errorf("core: client %d update: %w", u.ClientID, err)
		}
	}
	return nil
}
