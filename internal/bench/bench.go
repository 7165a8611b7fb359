// Package bench is the machine-readable performance harness: a Suite of
// named probes over the hot paths this repository optimizes — sharded
// aggregation, wire-codec throughput, pipeline stage cost, and round
// latency under a straggler — whose results serialize to a versioned
// BENCH.json. CI runs the suite every push and diffs the report against
// the committed BENCH_baseline.json (cmd/appfl-benchdiff), so "made it
// faster" and "made it slower" are claims the repository can check.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/f16"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// ReportVersion is bumped whenever the JSON schema changes shape.
// Version 2 added Metric.ParallelDependent.
const ReportVersion = 2

// Metric is one named measurement of the suite.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// HigherIsBetter orients the regression gate: throughputs and
	// speedups are higher-is-better, latencies are not.
	HigherIsBetter bool `json:"higher_is_better"`
	// Gated metrics participate in the CI regression gate. Machine-
	// dependent absolute throughputs are reported but ungated by default
	// (a laptop baseline would trip on every slower runner); ratios,
	// byte counts, and sleep-dominated latencies are stable across
	// machines and gate by default.
	Gated bool `json:"gated"`
	// ParallelDependent marks metrics whose value is a function of the
	// core count (parallel speedups, multi-worker throughputs). The diff
	// tool skips — reports but does not gate — these when the baseline
	// and current reports were measured at different GOMAXPROCS, so a
	// single-core laptop run against a multi-core CI baseline does not
	// produce spurious failures.
	ParallelDependent bool `json:"parallel_dependent,omitempty"`
}

// Report is the BENCH.json document.
type Report struct {
	Version    int      `json:"version"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Metrics    []Metric `json:"metrics"`
}

// Add appends a metric to the report.
func (r *Report) Add(m Metric) { r.Metrics = append(r.Metrics, m) }

// Lookup finds a metric by name.
func (r *Report) Lookup(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// WriteJSON writes the report to path.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReport loads a BENCH.json document.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if r.Version != ReportVersion {
		return nil, fmt.Errorf("bench: %s is schema version %d, this binary speaks %d", path, r.Version, ReportVersion)
	}
	return &r, nil
}

// Options tunes the suite. Zero values select the defaults used by the
// committed baseline.
type Options struct {
	// Dim is the model dimension of the aggregation and codec probes
	// (default 1<<20 — the "≥ 1M parameters" scale of the paper's CNNs).
	Dim int
	// Workers is the sharded width of the parallel probes (default 8).
	Workers int
	// MinProbeTime is the minimum cumulative measurement time per probe
	// (default 100ms).
	MinProbeTime time.Duration
	// StragglerDelay is the per-update delay of the slow client in the
	// round-latency probe (default 50ms, chosen so the deterministic
	// sleep dominates machine-dependent compute); Rounds is its round
	// count (default 3).
	StragglerDelay time.Duration
	Rounds         int
}

func (o Options) withDefaults() Options {
	if o.Dim == 0 {
		o.Dim = 1 << 20
	}
	if o.Workers == 0 {
		o.Workers = 8
	}
	if o.MinProbeTime == 0 {
		o.MinProbeTime = 100 * time.Millisecond
	}
	if o.StragglerDelay == 0 {
		// Large enough that the deterministic sleep dominates the sync
		// round (>90% of it), keeping the gated latency machine-stable.
		o.StragglerDelay = 50 * time.Millisecond
	}
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	return o
}

// Probe is one named measurement unit of the suite.
type Probe struct {
	Name string
	Run  func(o Options, r *Report) error
}

// Suite is an ordered set of probes.
type Suite struct {
	Opts   Options
	Probes []Probe
}

// NewSuite assembles the default probe set.
func NewSuite(opts Options) *Suite {
	return &Suite{
		Opts: opts.withDefaults(),
		Probes: []Probe{
			{Name: "agg", Run: probeAggregation},
			{Name: "kernel", Run: probeKernel},
			{Name: "codec", Run: probeCodec},
			{Name: "pipeline", Run: probePipeline},
			{Name: "round", Run: probeRoundLatency},
			{Name: "stream", Run: probeStream},
			{Name: "soak", Run: probeSoak},
		},
	}
}

// Run executes every probe and returns the report.
func (s *Suite) Run() (*Report, error) {
	r := &Report{Version: ReportVersion, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, p := range s.Probes {
		if err := p.Run(s.Opts, r); err != nil {
			return nil, fmt.Errorf("bench: probe %s: %w", p.Name, err)
		}
	}
	return r, nil
}

// measure returns seconds per call of f, repeating it until the
// cumulative measured time reaches minDur. One warm-up call is excluded.
func measure(minDur time.Duration, f func()) float64 {
	f()
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		el := time.Since(start)
		if el >= minDur {
			return el.Seconds() / float64(reps)
		}
		if el <= 0 {
			reps *= 8
			continue
		}
		next := int(float64(reps) * float64(minDur) / float64(el) * 1.25)
		if next <= reps {
			next = reps * 2
		}
		reps = next
	}
}

// randVec fills a deterministic pseudorandom vector in (-0.5, 0.5) — a
// range every compression stage (including float16) represents.
func randVec(n int, seed uint64) []float64 {
	r := rng.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Float64() - 0.5
	}
	return v
}

// probeAggregation measures the sharded fold (BufferedAggregator) and the
// sharded sample-weighted average (FedAvgServer) at width 1 versus
// Options.Workers, reporting element throughput and the parallel-vs-serial
// speedup. The speedup is the headline the CI gate watches; the serial and
// parallel paths produce bit-identical weights (asserted in the core
// tests), so this is a free lunch, not a precision trade.
func probeAggregation(o Options, r *Report) error {
	w0 := randVec(o.Dim, 11)
	z := randVec(o.Dim, 12)
	batch := []*wire.LocalUpdate{{ClientID: 0, NumSamples: 64, Primal: z}}

	foldSec := func(workers int) (float64, error) {
		agg, err := core.NewBufferedAggregator(w0, 0.5, 0.5, 0)
		if err != nil {
			return 0, err
		}
		agg.Workers = workers
		sec := measure(o.MinProbeTime, func() {
			if err := agg.Aggregate(batch); err != nil {
				panic(err)
			}
		})
		return sec, nil
	}
	serial, err := foldSec(1)
	if err != nil {
		return err
	}
	parallel, err := foldSec(o.Workers)
	if err != nil {
		return err
	}
	r.Add(Metric{Name: "agg_fold_serial", Value: float64(o.Dim) / serial / 1e6, Unit: "Melem/s", HigherIsBetter: true})
	r.Add(Metric{Name: fmt.Sprintf("agg_fold_parallel_%dw", o.Workers), Value: float64(o.Dim) / parallel / 1e6, Unit: "Melem/s", HigherIsBetter: true, ParallelDependent: true})
	r.Add(Metric{Name: "agg_fold_speedup", Value: serial / parallel, Unit: "x", HigherIsBetter: true, Gated: true, ParallelDependent: true})

	// FedAvg over an 8-client batch: the barrier-round hot path.
	const clients = 8
	fedBatch := make([]*wire.LocalUpdate, clients)
	for i := range fedBatch {
		fedBatch[i] = &wire.LocalUpdate{ClientID: uint32(i), NumSamples: uint64(32 + i), Primal: randVec(o.Dim, uint64(20+i))}
	}
	avgSec := func(workers int) float64 {
		srv := core.NewFedAvgServer(w0, clients)
		srv.Workers = workers
		return measure(o.MinProbeTime, func() {
			if err := srv.Aggregate(fedBatch); err != nil {
				panic(err)
			}
		})
	}
	aserial := avgSec(1)
	aparallel := avgSec(o.Workers)
	r.Add(Metric{Name: "fedavg_agg_serial", Value: float64(o.Dim*clients) / aserial / 1e6, Unit: "Melem/s", HigherIsBetter: true})
	r.Add(Metric{Name: fmt.Sprintf("fedavg_agg_parallel_%dw", o.Workers), Value: float64(o.Dim*clients) / aparallel / 1e6, Unit: "Melem/s", HigherIsBetter: true, ParallelDependent: true})
	r.Add(Metric{Name: "fedavg_agg_speedup", Value: aserial / aparallel, Unit: "x", HigherIsBetter: true, Gated: true, ParallelDependent: true})
	return nil
}

// twoSweepFold is the pre-kernel fold: a zero sweep of the accumulator
// followed by one full accumulator sweep per source — (K+1) passes over
// dst where tensor.FoldK makes one. It is kept here as the reference the
// kernel probes measure against.
func twoSweepFold(dst []float64, srcs [][]float64, weights []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for k, src := range srcs {
		w := weights[k]
		for i, v := range src {
			dst[i] += w * v
		}
	}
}

// probeKernel measures the cache-blocked aggregation kernels in
// isolation, single-threaded — throughput of the batched K-way fold at
// several widths, the blocked-vs-two-sweep speedup, and the fused
// invert+fold versus the two-pass densify-then-fold on float16 payloads. The two speedups are same-machine ratios and gate;
// they are not parallel-dependent, so they gate at any GOMAXPROCS.
func probeKernel(o Options, r *Report) error {
	dst := make([]float64, o.Dim)

	// Batched fold throughput at K ∈ {2, 8, 32}.
	const refK = 8
	var refSrcs [][]float64
	var refWeights []float64
	for _, k := range []int{2, 8, 32} {
		srcs := make([][]float64, k)
		weights := make([]float64, k)
		for j := range srcs {
			srcs[j] = randVec(o.Dim, uint64(100+j))
			weights[j] = 1 / float64(k)
		}
		if k == refK {
			refSrcs, refWeights = srcs, weights
		}
		sec := measure(o.MinProbeTime, func() { tensor.FoldK(dst, 0, o.Dim, srcs, weights) })
		r.Add(Metric{Name: fmt.Sprintf("kernel_foldk_k%d", k), Value: float64(k*o.Dim) / sec / 1e6, Unit: "Melem/s", HigherIsBetter: true})
	}

	// Blocked kernel vs the two-sweep fold it replaced, at K=8.
	blockedSec := measure(o.MinProbeTime, func() { tensor.FoldK(dst, 0, o.Dim, refSrcs, refWeights) })
	twoSweepSec := measure(o.MinProbeTime, func() { twoSweepFold(dst, refSrcs, refWeights) })
	r.Add(Metric{Name: "kernel_foldk_speedup", Value: twoSweepSec / blockedSec, Unit: "x", HigherIsBetter: true, Gated: true})

	// Fused invert+fold vs two-pass densify-then-fold on f16 payloads.
	payloads := make([]*wire.Payload, refK)
	fsrcs := make([]tensor.FoldSrc, refK)
	for j := range payloads {
		v := refSrcs[j]
		codes := make([]byte, 2*len(v))
		for i, x := range v {
			h := f16.FromFloat64(x)
			codes[2*i] = byte(h)
			codes[2*i+1] = byte(h >> 8)
		}
		payloads[j] = &wire.Payload{Enc: wire.EncFloat16, Dim: uint32(len(v)), Codes: codes}
		fsrcs[j] = tensor.FoldSrc{Kind: tensor.SrcF16, Codes: codes, W: refWeights[j]}
	}
	scratch := make([][]float64, refK)
	for j := range scratch {
		scratch[j] = make([]float64, o.Dim)
	}
	twoPassSec := measure(o.MinProbeTime, func() {
		for j, p := range payloads {
			d, err := p.Densify(scratch[j])
			if err != nil {
				panic(err)
			}
			scratch[j] = d
		}
		tensor.FoldK(dst, 0, o.Dim, scratch, refWeights)
	})
	fusedSec := measure(o.MinProbeTime, func() { tensor.FoldKSrc(dst, 0, o.Dim, fsrcs) })
	r.Add(Metric{Name: "kernel_fused_speedup", Value: twoPassSec / fusedSec, Unit: "x", HigherIsBetter: true, Gated: true})
	return nil
}

// probeCodec measures wire-codec encode and decode of a dim-sized dense
// LocalUpdate the way a connection does them in steady state: through
// Encoder.Encode on an encoder it keeps, and into a message it recycles.
func probeCodec(o Options, r *Report) error {
	u := &wire.LocalUpdate{ClientID: 1, Round: 1, NumSamples: 64, Primal: randVec(o.Dim, 31)}
	var e wire.Encoder
	encSec := measure(o.MinProbeTime, func() { e.Encode(u) })
	bytes := float64(e.Len())

	var out wire.LocalUpdate
	var d wire.Decoder
	decSec := measure(o.MinProbeTime, func() {
		d.Reset(e.Bytes())
		if err := out.Unmarshal(&d); err != nil {
			panic(err)
		}
	})
	r.Add(Metric{Name: "codec_encode", Value: bytes / encSec / 1e6, Unit: "MB/s", HigherIsBetter: true})
	r.Add(Metric{Name: "codec_decode", Value: bytes / decSec / 1e6, Unit: "MB/s", HigherIsBetter: true})
	return nil
}

// probePipeline measures the cost of each compression stage (Apply +
// Invert on a dim/4 vector) and records the wire-size reduction each
// achieves. The reductions are deterministic byte ratios — exactly
// reproducible on any machine — so they gate.
func probePipeline(o Options, r *Report) error {
	n := o.Dim / 4
	if n < 1024 {
		n = 1024
	}
	src := randVec(n, 41)
	denseBytes := (&wire.Payload{Enc: wire.EncDense, Dim: uint32(n), Dense: src}).WireBytes()

	topk, err := pipeline.NewTopKSparsify(0.1)
	if err != nil {
		return err
	}
	quant, err := pipeline.NewStochasticQuantize(8, rng.New(42))
	if err != nil {
		return err
	}
	f16, err := pipeline.NewFloat16Cast()
	if err != nil {
		return err
	}
	type namedStage struct {
		name  string
		stage pipeline.Stage
	}
	stages := []namedStage{{"topk", topk}, {"quant", quant}, {"f16", f16}}

	buf := make([]float64, n)
	for _, s := range stages {
		u := &pipeline.Update{}
		roundTrip := func() {
			copy(buf, src)
			*u = pipeline.Update{Enc: wire.EncDense, Dim: uint32(n), Dense: buf}
			if err := s.stage.Apply(u, 0); err != nil {
				panic(err)
			}
			if err := s.stage.Invert(u); err != nil {
				panic(err)
			}
		}
		sec := measure(o.MinProbeTime, roundTrip)

		// Wire size after one Apply, measured outside the timed region.
		copy(buf, src)
		*u = pipeline.Update{Enc: wire.EncDense, Dim: uint32(n), Dense: buf}
		if err := s.stage.Apply(u, 0); err != nil {
			return err
		}
		ratio := float64(denseBytes) / float64(u.WireBytes())

		r.Add(Metric{Name: "pipe_" + s.name, Value: float64(8*n) / sec / 1e6, Unit: "MB/s", HigherIsBetter: true})
		r.Add(Metric{Name: "pipe_" + s.name + "_reduction", Value: ratio, Unit: "x", HigherIsBetter: true, Gated: true})
	}
	return nil
}

// probeRoundLatency runs a real federated round loop (MPI transport, one
// straggling client injected via RunOptions.ClientDelay — the simnet-style
// slow-device model) under the synchronous barrier and the buffered
// scheduler. Sync round latency is dominated by the deterministic
// straggler sleep, so it is stable across machines and gates; the
// buffered figures depend on compute speed and are reported ungated.
func probeRoundLatency(o Options, r *Report) error {
	const clients = 4
	tr, _ := dataset.MNIST(dataset.SynthConfig{Train: 128, Test: 1, Seed: 17})
	fed := &dataset.Federated{Clients: dataset.PartitionIID(tr, clients, rng.New(18))}
	factory := func() nn.Module { return nn.NewMLP(28*28, []int{16}, 10, rng.New(17)) }
	delay := func(client, round int) time.Duration {
		if client == clients-1 {
			return o.StragglerDelay
		}
		return 0
	}
	run := func(cfg core.Config) (float64, error) {
		start := time.Now()
		if _, err := core.Run(cfg, fed, factory, core.RunOptions{ClientDelay: delay}); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	base := core.Config{Algorithm: core.AlgoFedAvg, Rounds: o.Rounds, LocalSteps: 1, BatchSize: 32, Seed: 17}
	syncSec, err := run(base)
	if err != nil {
		return err
	}
	buffered := base
	buffered.Scheduler = core.SchedBuffered
	buffered.BufferK = clients / 2
	bufSec, err := run(buffered)
	if err != nil {
		return err
	}
	r.Add(Metric{Name: "round_latency_sync", Value: syncSec / float64(o.Rounds) * 1e3, Unit: "ms", HigherIsBetter: false, Gated: true})
	r.Add(Metric{Name: "round_latency_buffered", Value: bufSec / float64(o.Rounds) * 1e3, Unit: "ms", HigherIsBetter: false})
	r.Add(Metric{Name: "straggler_speedup", Value: syncSec / bufSec, Unit: "x", HigherIsBetter: true})
	return nil
}
