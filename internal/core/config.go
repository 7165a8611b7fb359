// Package core implements the federated-learning engine of the APPFL
// reproduction: the server/client algorithm interfaces (Aggregator and
// ClientAlgorithm, the analogs of APPFL's BaseServer and BaseClient Python
// classes), the three algorithms the paper evaluates — FedAvg, ICEADMM,
// and the paper's new IIADMM (Algorithm 1) — and the round engine that
// orchestrates them over any comm transport under a Scheduler: barrier,
// sampled-cohort or buffered semi-asynchronous rounds, with fault
// tolerance and a crash-recoverable journal. Extensions from the paper's
// future-work list (asynchronous aggregation, adaptive penalty) live here
// too.
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/wire"
)

// Algorithm names accepted in Config.Algorithm.
const (
	AlgoFedAvg  = "fedavg"
	AlgoICEADMM = "iceadmm"
	AlgoIIADMM  = "iiadmm"
)

// DP modes accepted in Config.DPMode.
const (
	DPModeOutput    = "output"    // perturb the released parameters (Eq. 6)
	DPModeObjective = "objective" // perturb the local objective instead
)

// Config describes one federated run. Zero values select the documented
// defaults, which are calibrated so the three algorithms take comparable
// effective step sizes (and hence comparable DP noise scales, as in the
// paper's tuned comparison).
type Config struct {
	Algorithm string // fedavg | iceadmm | iiadmm

	Rounds     int // T, communication rounds (default 10)
	LocalSteps int // L, local epochs/steps per round (default 10)
	BatchSize  int // mini-batch size for FedAvg/IIADMM (default 64)

	// FedAvg hyperparameters.
	LR       float64 // η (default 1/(Rho+Zeta) so noise scales match)
	Momentum float64 // SGD momentum (default 0.9, per the paper §IV-B)

	// IADMM hyperparameters (ICEADMM, IIADMM).
	Rho  float64 // penalty ρ (default 2)
	Zeta float64 // proximity ζ (default 14)

	// DPMode selects where the noise of the Pipeline's noise stages
	// enters: "output" (default) perturbs the uploaded parameters,
	// Eq. (6); "objective" perturbs the local objective with a random
	// linear term instead (Chaudhuri et al., the paper's planned advanced
	// scheme). Ignored when the stack has no noise stage.
	DPMode string

	// Pipeline is the ordered update-pipeline spec: the stack of privacy
	// and compression stages every client release passes through, e.g.
	//
	//	"clip:1.0,laplace:0.5,topk:0.1"
	//
	// Stages: clip:C, laplace:EPS, gaussian:EPS[:DELTA], topk:FRAC,
	// quantize[:BITS], f16 (see pipeline.Parse for the grammar and
	// ordering rules). It is the one description of the client update
	// stack, differential privacy included: ε̄-DP Laplace output
	// perturbation is "clip:1,laplace:EPS" (LaplacePipeline). Empty
	// selects DefaultPipeline, the non-private "clip:1".
	Pipeline string

	// DownlinkF16 broadcasts every global model as a float16 payload
	// instead of dense float64 — a ~4x cut of server→client bytes, the
	// downlink mirror of the upload pipeline's compression stages.
	// Clients densify the payload before training; the cast is lossy, so
	// trajectories differ from dense downlink runs.
	DownlinkF16 bool

	// FreezeDual pins every dual variable at zero (λt ≡ 0). This is the
	// reduction under which the IADMM family collapses to FedAvg
	// (Section III-A: λt=0, ζt=0, ρt=1/η) and serves as the ablation that
	// isolates the value of dual information.
	FreezeDual bool

	// AdaptiveRho enables the residual-balancing penalty controller (paper
	// §V, item 2) for the IADMM algorithms: the server re-tunes ρ each
	// round and broadcasts it with the global model so client and server
	// dual updates stay consistent.
	AdaptiveRho bool

	// Scheduler selects the participation policy: SchedSyncAll (default)
	// barriers on every client each round; SchedSampled schedules a
	// pseudorandom cohort per round (true partial participation — clients
	// outside the cohort receive nothing); SchedBuffered releases an
	// aggregation as soon as BufferK updates arrive, FedBuff-style, with
	// staleness-weighted mixing.
	Scheduler string

	// CohortFraction is the fraction of clients scheduled per round under
	// SchedSampled, in (0,1].
	CohortFraction float64
	// CohortMin floors the sampled cohort size (default 1).
	CohortMin int

	// BufferK is the buffer size of SchedBuffered: an aggregation is
	// released after this many updates arrive (default: half the clients).
	BufferK int
	// MaxStaleness drops buffered updates whose base model is more than
	// this many releases old (0 = keep everything).
	MaxStaleness int
	// AsyncAlpha is the base mixing rate of the staleness-weighted rule
	// used by SchedBuffered, in (0,1]; 0 selects the default 0.6.
	AsyncAlpha float64
	// AsyncGamma is the staleness-decay exponent, >= 0; 0 selects the
	// default 0.5 (like every zero-valued Config field — to effectively
	// disable the staleness discount, pass a vanishing positive value
	// such as 1e-12).
	AsyncGamma float64

	// StreamChunk, when positive, streams every uplink as a sequence of
	// fixed-size wire.ModelChunk messages of this many coordinates instead
	// of one monolithic LocalUpdate: the server folds each chunk into an
	// O(chunk) accumulator window as it arrives (StreamSession), so peak
	// transient memory tracks the chunk size, not the model dimension.
	// Chunking is invisible to the arithmetic — the streamed trajectory is
	// bit-identical to the monolithic one. FedAvg behind a barrier
	// scheduler (syncall or sampled) only, with a dense release or an
	// "f16"-suffixed stack (whose inverse is a per-coordinate decode); not
	// combinable with RoundTimeout or SubsetFrac.
	StreamChunk int

	// SubsetFrac, when in (0,1), makes every client upload only the first
	// ceil(SubsetFrac·dim) coordinates of its trained vector as a
	// wire.EncSubset payload — the LoRA-style partial-parameter update.
	// The server scatter-folds listed coordinates and every unlisted
	// coordinate keeps its weighted share of the current global value (see
	// subset.go). FedAvg behind a barrier scheduler only, with a Pipeline
	// that has no compression stage (the subset is cut from the dense
	// release); not combinable with StreamChunk.
	SubsetFrac float64

	// RoundTimeout bounds how long the server waits on a round's gather.
	// Zero (the default) waits forever — the pre-fault-tolerance behavior,
	// under which a client that never reports hangs the round. With a
	// timeout, a barrier round completes with whoever reported (quorum
	// permitting), the missing clients are forgiven and benched with
	// exponential backoff, and a buffered round releases whatever arrived
	// instead of blocking on K arrivals that will never come.
	RoundTimeout time.Duration
	// MinCohort is the quorum: the minimum number of survivors a
	// deadline-cut barrier round may aggregate (and the minimum cohort the
	// scheduler may dispatch to once failed clients are excluded). Fewer
	// survivors abort the run with ErrQuorum. 0 defaults to 1.
	MinCohort int

	Seed uint64 // master seed; also draws the sampled cohorts (default 1)
}

// WithDefaults returns a copy with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = AlgoIIADMM
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.LocalSteps == 0 {
		c.LocalSteps = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.Rho == 0 {
		c.Rho = 2
	}
	if c.Zeta == 0 {
		c.Zeta = 14
	}
	if c.LR == 0 {
		c.LR = 1 / (c.Rho + c.Zeta)
	}
	if c.Momentum == 0 && c.Algorithm == AlgoFedAvg {
		c.Momentum = 0.9
	}
	if strings.TrimSpace(c.Pipeline) == "" { // blank parses as empty too
		c.Pipeline = DefaultPipeline
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scheduler == "" {
		c.Scheduler = SchedSyncAll
	}
	if c.Scheduler == SchedBuffered {
		if c.AsyncAlpha == 0 {
			c.AsyncAlpha = DefaultAsyncAlpha
		}
		if c.AsyncGamma == 0 {
			c.AsyncGamma = DefaultAsyncGamma
		}
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Algorithm {
	case AlgoFedAvg, AlgoICEADMM, AlgoIIADMM:
	default:
		return fmt.Errorf("core: unknown algorithm %q", c.Algorithm)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("core: Rounds must be positive, got %d", c.Rounds)
	}
	if c.LocalSteps <= 0 {
		return fmt.Errorf("core: LocalSteps must be positive, got %d", c.LocalSteps)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("core: BatchSize must be positive, got %d", c.BatchSize)
	}
	if c.LR <= 0 {
		return fmt.Errorf("core: LR must be positive, got %v", c.LR)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("core: Momentum must be in [0,1), got %v", c.Momentum)
	}
	if c.Rho <= 0 || c.Zeta < 0 {
		return fmt.Errorf("core: need Rho > 0 and Zeta >= 0, got %v/%v", c.Rho, c.Zeta)
	}
	if c.AdaptiveRho && c.Algorithm == AlgoFedAvg {
		return fmt.Errorf("core: AdaptiveRho applies only to the IADMM algorithms")
	}
	switch c.DPMode {
	case "", DPModeOutput, DPModeObjective:
	default:
		return fmt.Errorf("core: unknown DPMode %q", c.DPMode)
	}
	stack, err := c.stack(nil)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.RoundTimeout < 0 {
		return fmt.Errorf("core: RoundTimeout must be >= 0, got %v", c.RoundTimeout)
	}
	if c.MinCohort < 0 {
		return fmt.Errorf("core: MinCohort must be >= 0, got %d", c.MinCohort)
	}
	switch c.Scheduler {
	case "", SchedSyncAll:
	case SchedSampled:
		if c.Algorithm != AlgoFedAvg {
			return fmt.Errorf("core: sampled cohorts require FedAvg (IADMM servers hold per-client duals)")
		}
		if c.CohortFraction <= 0 || c.CohortFraction > 1 {
			return fmt.Errorf("core: sampled scheduler needs CohortFraction in (0,1], got %v", c.CohortFraction)
		}
		if c.CohortMin < 0 {
			return fmt.Errorf("core: CohortMin must be >= 0, got %d", c.CohortMin)
		}
	case SchedBuffered:
		if c.Algorithm != AlgoFedAvg {
			return fmt.Errorf("core: buffered scheduling requires FedAvg local solvers")
		}
		if c.BufferK < 0 {
			return fmt.Errorf("core: BufferK must be >= 0, got %d", c.BufferK)
		}
		if c.MaxStaleness < 0 {
			return fmt.Errorf("core: MaxStaleness must be >= 0, got %d", c.MaxStaleness)
		}
		if c.AsyncAlpha < 0 || c.AsyncAlpha > 1 {
			return fmt.Errorf("core: AsyncAlpha must be in (0,1] (0 selects the default), got %v", c.AsyncAlpha)
		}
		if c.AsyncGamma < 0 {
			return fmt.Errorf("core: AsyncGamma must be >= 0, got %v", c.AsyncGamma)
		}
	default:
		return fmt.Errorf("core: unknown scheduler %q", c.Scheduler)
	}
	if c.StreamChunk < 0 {
		return fmt.Errorf("core: StreamChunk must be >= 0 (0 selects the monolithic path), got %d", c.StreamChunk)
	}
	if c.StreamChunk > 0 {
		if c.Algorithm != AlgoFedAvg {
			return fmt.Errorf("core: StreamChunk requires FedAvg (the chunk window mirrors its element-wise fold)")
		}
		switch c.Scheduler {
		case "", SchedSyncAll, SchedSampled:
		default:
			return fmt.Errorf("core: StreamChunk requires a barrier scheduler (syncall or sampled), got %q", c.Scheduler)
		}
		if c.RoundTimeout > 0 {
			return fmt.Errorf("core: StreamChunk and RoundTimeout cannot combine (the chunk gather has no forgive path)")
		}
		// Only a dense release, or one whose whole inverse is a pure
		// per-coordinate f16 decode, folds chunk-wise without changing a bit.
		if fs, ok := stack.Fused(); stack.Compresses() && (!ok || fs.FusedEnc() != wire.EncFloat16) {
			return fmt.Errorf("core: StreamChunk supports only dense or f16 uplinks, not pipeline %q", c.Pipeline)
		}
	}
	if c.SubsetFrac != 0 {
		if c.SubsetFrac < 0 || c.SubsetFrac >= 1 {
			return fmt.Errorf("core: SubsetFrac must be in (0,1), got %v", c.SubsetFrac)
		}
		if c.Algorithm != AlgoFedAvg {
			return fmt.Errorf("core: SubsetFrac requires FedAvg (the scatter-fold extends its weighting rule)")
		}
		switch c.Scheduler {
		case "", SchedSyncAll, SchedSampled:
		default:
			return fmt.Errorf("core: SubsetFrac requires a barrier scheduler (syncall or sampled), got %q", c.Scheduler)
		}
		if stack.Compresses() {
			return fmt.Errorf("core: SubsetFrac needs a dense release, not pipeline %q (the subset is cut from the dense vector)", c.Pipeline)
		}
		if c.StreamChunk > 0 {
			return fmt.Errorf("core: SubsetFrac and StreamChunk cannot combine (a subset upload is already sub-O(dim))")
		}
	}
	return nil
}

// CommunicatesDual reports whether the algorithm uploads dual vectors in
// addition to primal vectors — true only for ICEADMM, which is exactly the
// communication overhead IIADMM eliminates (Section III-A).
func (c Config) CommunicatesDual() bool { return c.Algorithm == AlgoICEADMM }
