package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// StreamOptions parameterize the chunked-uplink benchmark.
type StreamOptions struct {
	// Dim is the model dimension (default 1<<20).
	Dim int
	// Clients is the cohort size streaming concurrently (default 8).
	Clients int
	// Chunk is the chunk size in coordinates (default 16384).
	Chunk int
	// Workers is the fold worker width (default 8).
	Workers int
	// MinProbeTime is the minimum cumulative measurement time for the
	// throughput phase (default 100ms).
	MinProbeTime time.Duration
	// Seed drives the synthetic vectors (default 1).
	Seed uint64
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.Dim <= 0 {
		o.Dim = 1 << 20
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Chunk <= 0 {
		o.Chunk = 16384
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.MinProbeTime <= 0 {
		o.MinProbeTime = 100 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// StreamResult is one RunStream outcome.
type StreamResult struct {
	Opts StreamOptions
	// PeakBytes is the maximum resident chunk-payload bytes during the
	// gather — the streamed round's transient uplink footprint. It is a
	// pure function of (Dim, Clients, Chunk) and the wire codec, so it
	// gates in CI as a memory-regression tripwire.
	PeakBytes int
	// DenseBytes is the monolithic path's resident uplink footprint for
	// the same cohort (Clients × Dim × 8): what the server would hold if
	// every model arrived whole.
	DenseBytes int
	// WindowRatio is DenseBytes / PeakBytes — how many times smaller the
	// streaming window is than a cohort of full models.
	WindowRatio float64
	// Chunks is the number of chunks folded per round.
	Chunks int
	// SecPerRound is the measured wall time of one streamed round
	// (cohort upload + chunk-by-chunk fold); ElemPerSec is the fold
	// throughput Clients×Dim / SecPerRound.
	SecPerRound float64
	ElemPerSec  float64
}

// RunStream measures the streaming aggregation path end to end: a cohort
// of clients cuts synthetic model vectors into chunks and uploads them at
// the pace of an in-memory ChunkPipe's bounded queues, while a
// StreamSession folds each cohort-wide chunk window into a FedAvg server
// — the identical engine the runner drives when Config.StreamChunk is
// set. The headline numbers
// are the resident window footprint (PeakBytes, deterministic) and the
// streamed fold throughput (machine-dependent).
func RunStream(o StreamOptions) (*StreamResult, error) {
	o = o.withDefaults()
	res := &StreamResult{Opts: o}

	w0 := randVec(o.Dim, o.Seed)
	// Clients alias a few base vectors so the cohort does not need
	// Clients×Dim fresh memory (the scale harness's trick).
	const baseVecs = 4
	bases := make([][]float64, baseVecs)
	for i := range bases {
		bases[i] = randVec(o.Dim, o.Seed+1+uint64(i))
	}

	cfg := core.Config{Algorithm: core.AlgoFedAvg, AggWorkers: o.Workers}.WithDefaults()
	agg, err := core.NewAggregator(cfg, w0, o.Clients)
	if err != nil {
		return nil, err
	}
	ss, err := core.NewStreamSession(agg)
	if err != nil {
		return nil, err
	}

	pipe := comm.NewChunkPipe(o.Clients)
	cohort := make([]int, o.Clients)
	for i := range cohort {
		cohort[i] = i
	}
	// One streamed round: every client sends its chunks as fast as the
	// pipe takes them while the server folds the rotating chunk window,
	// and waits for the one ack after the last fold. The round number is
	// held at 1 across repetitions: each repetition ends with every ack
	// consumed, so the next starts on empty queues.
	round := func() (*comm.StreamStats, error) {
		var wg sync.WaitGroup
		errs := make([]error, o.Clients)
		for i := 0; i < o.Clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				u := &wire.LocalUpdate{
					ClientID:   uint32(i),
					Round:      1,
					NumSamples: uint64(16 + i%31),
					Primal:     bases[i%baseVecs],
				}
				errs[i] = comm.StreamUpload(pipe.Client(i), u, o.Chunk)
			}(i)
		}
		st, err := comm.StreamGather(pipe, cohort, 1, o.Dim, o.Chunk, ss.Begin, ss.FoldPayloads)
		if err != nil {
			return st, err
		}
		if err := ss.Finish(); err != nil {
			return st, err
		}
		wg.Wait()
		for i, e := range errs {
			if e != nil {
				return st, fmt.Errorf("bench: client %d stream: %w", i, e)
			}
		}
		return st, nil
	}

	// Instrumented round for the deterministic footprint numbers.
	st, err := round()
	if err != nil {
		return nil, err
	}
	res.PeakBytes = st.PeakBytes
	res.DenseBytes = 8 * o.Dim * o.Clients
	res.WindowRatio = float64(res.DenseBytes) / float64(res.PeakBytes)
	res.Chunks = st.Chunks

	// Timed rounds for throughput.
	res.SecPerRound = measure(o.MinProbeTime, func() {
		if _, err := round(); err != nil {
			panic(err)
		}
	})
	res.ElemPerSec = float64(o.Dim*o.Clients) / res.SecPerRound
	return res, nil
}

// Table renders the result for terminal output and CI summaries.
func (res *StreamResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("stream: %d clients × dim %d, chunk %d, %d workers",
			res.Opts.Clients, res.Opts.Dim, res.Opts.Chunk, res.Opts.Workers),
		"metric", "value", "unit")
	t.AddRowf("peak resident window", float64(res.PeakBytes)/1e6, "MB")
	t.AddRowf("monolithic footprint", float64(res.DenseBytes)/1e6, "MB")
	t.AddRowf("window ratio", res.WindowRatio, "x")
	t.AddRowf("chunks per round", fmt.Sprintf("%d", res.Chunks), "chunks")
	t.AddRowf("round time", res.SecPerRound*1e3, "ms")
	t.AddRowf("fold throughput", res.ElemPerSec/1e6, "Melem/s")
	return t
}

// probeStream is the suite hook. Like probeScale it runs at *fixed*
// geometry — not Options.Dim — so the gated footprint numbers are a pure
// function of the wire codec, reproducible on any machine; only the
// worker width and probe time pass through (they shape the ungated,
// machine-dependent throughput).
func probeStream(o Options, r *Report) error {
	res, err := RunStream(StreamOptions{Workers: o.Workers, MinProbeTime: o.MinProbeTime})
	if err != nil {
		return err
	}
	r.Add(Metric{Name: "stream_peak_bytes", Value: float64(res.PeakBytes), Unit: "B", HigherIsBetter: false, Gated: true})
	r.Add(Metric{Name: "stream_window_ratio", Value: res.WindowRatio, Unit: "x", HigherIsBetter: true, Gated: true})
	r.Add(Metric{Name: "stream_fold_throughput", Value: res.ElemPerSec / 1e6, Unit: "Melem/s", HigherIsBetter: true, ParallelDependent: true})
	return nil
}
