package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"

	appfl "repro"
	"repro/internal/comm"
	mpicomm "repro/internal/comm/mpi"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/nn"
)

// childEnv carries a childSpec to the re-executed harness. A process that
// finds it set runs exactly one federation and exits.
const childEnv = "FLROUND_CHILD"

// childSpec is what the harness asks one child process to run.
type childSpec struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Rounds    int    `json:"rounds"`
	Warmup    int    `json:"warmup"`
	Transport string `json:"transport"` // "rpc" or "mpi"
	Traced    bool   `json:"traced"`
	// TraceFile is where a traced child writes its spans ("" = nowhere).
	TraceFile string `json:"trace_file"`
	// OutDir is the scratch directory for journals, inside the checkout.
	OutDir string `json:"out_dir"`
}

// childResult is the one JSON line a child prints. Times are per round as
// the program reported them (RoundStats.WallSec); the parent adds what can
// only be seen from outside: wall time of the whole process and peak RSS.
type childResult struct {
	Err           string    `json:"err,omitempty"`
	WallSec       []float64 `json:"wall_sec"`
	RoundsDone    int       `json:"rounds_done"` // rounds completed, also when the run failed
	CohortSum     int       `json:"cohort_sum"`  // Σ RoundStats.CohortSize
	UploadsB      uint64    `json:"uploads_b"`
	DownloadsB    uint64    `json:"downloads_b"`
	ModelDim      int       `json:"model_dim"`
	FinalLossBits uint64    `json:"final_loss_bits"` // exact, and NaN-safe in JSON
	GoMaxProcs    int       `json:"gomaxprocs"`
	// runtime.MemStats deltas over the measured rounds (after warm-up).
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint32 `json:"gc_cycles"`
	// Layers holds the samples of every per-layer metric a traced child
	// measured: one per measured round for span metrics, one per
	// repetition for standalone probes.
	Layers map[string][]float64 `json:"layers,omitempty"`
}

// roundHook is installed as RunOptions.Progress. The runner writes one
// progress line per round after it has taken the round's wall time, so the
// hook sees every round boundary without being inside any measured time.
type roundHook struct {
	warmup int
	rounds int
	atWarm runtime.MemStats
}

func (h *roundHook) Write(p []byte) (int, error) {
	h.rounds++
	if h.rounds == h.warmup {
		runtime.ReadMemStats(&h.atWarm)
	}
	return len(p), nil
}

// childMain runs the federation described by the environment and prints
// its result. It returns the process exit code.
func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "flround child: bad spec: %v\n", err)
		return 2
	}
	res := runFederation(spec)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flround child: %v\n", err)
		return 2
	}
	fmt.Println(string(out))
	if res.Err != "" {
		return 1
	}
	return 0
}

// runFederation generates the workload's inputs from the seed, runs one
// federation and reports what the program returned. A failed run is
// reported in the result, never as a panic.
func runFederation(spec childSpec) *childResult {
	out := &childResult{GoMaxProcs: runtime.GOMAXPROCS(0)}
	fail := func(err error) *childResult {
		out.Err = err.Error()
		return out
	}
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", spec.Workload))
	}
	f := w.build(spec.Seed, spec.Rounds)
	if spec.Transport == "mpi" {
		f.opts.Transport = appfl.TransportMPI
	}
	if w.journal {
		dir := filepath.Join(spec.OutDir, fmt.Sprintf("journal-%d", os.Getpid()))
		j, err := journal.Open(dir)
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
		defer j.Close()
		// The workload gates the program's journaling work (encode, CRC,
		// write, compaction), not this machine's disk: with per-append
		// fsync on, round_s moved by a third from run to run on the VM this
		// was sized on. Checkpoints still fsync (journal.AtomicWriteFile
		// always does); they are every 5th round and live in the tail. The
		// traced run reports the fsync cost as journal_fsync_disk_s.
		j.NoSync = true
		f.opts.Journal = j
	}
	hook := &roundHook{warmup: spec.Warmup}
	f.opts.Progress = hook

	var res *appfl.Result
	var err error
	var tr *tracer
	var ts *tracedServer
	cp := &capture{round: spec.Rounds}
	if spec.Traced {
		tr = newTracer()
		res, ts, err = runTraced(f, tr, cp)
	} else {
		res, err = appfl.Run(f.cfg, f.fed, f.factory, f.opts)
	}
	var atEnd runtime.MemStats
	runtime.ReadMemStats(&atEnd)
	out.RoundsDone = hook.rounds
	if err != nil {
		return fail(err)
	}
	for _, r := range res.Rounds {
		out.WallSec = append(out.WallSec, r.WallSec)
		out.CohortSum += r.CohortSize
	}
	out.UploadsB, out.DownloadsB, out.ModelDim = res.UploadsB, res.DownloadsB, res.ModelDim
	out.FinalLossBits = math.Float64bits(res.FinalLoss)
	out.AllocBytes = atEnd.TotalAlloc - hook.atWarm.TotalAlloc
	out.Mallocs = atEnd.Mallocs - hook.atWarm.Mallocs
	out.GCCycles = atEnd.NumGC - hook.atWarm.NumGC

	if spec.Traced {
		spans := tr.finish()
		// The last round is the capture round: its copies sit inside it.
		measured := func(r int) bool { return r > spec.Warmup && r < spec.Rounds }
		out.Layers = spanLayers(w, spans, res, measured)
		if w.stream {
			out.Layers["chunk_retransmits"] = []float64{float64(ts.retransmits)}
		}
		if err := runProbes(w, f, cp, out.Layers, spec.OutDir); err != nil {
			return fail(fmt.Errorf("layer probes: %w", err))
		}
		if spec.TraceFile != "" {
			if err := writeTrace(spec, spans, measured); err != nil {
				return fail(err)
			}
		}
	}
	return out
}

// runTraced is appfl.Run with the transports built here, so that timing
// decorators sit between the round engine and the real transport, and the
// decorated server doubles as the run's timing-only admission gate.
func runTraced(f federation, tr *tracer, cp *capture) (*appfl.Result, *tracedServer, error) {
	dim := len(nn.FlattenParams(f.factory(), nil))
	st, cts, err := dialTransports(f.opts.Transport, numClients, dim, f.cfg.Rounds)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	ts := newTracedServer(st, tr, cp)
	for i := range cts {
		cts[i] = newTracedClient(cts[i], tr, i)
	}
	f.opts.Gate = ts
	res, err := core.RunWithTransport(f.cfg, f.fed, f.factory, f.opts, ts, cts)
	return res, ts, err
}

// dialTransports builds the transports the way core.Run does for the
// simulator: a real rpc listener on 127.0.0.1 with one dialed connection
// per client, or the in-process mpi world.
func dialTransports(kind core.Transport, P, dim, rounds int) (comm.ServerTransport, []comm.ClientTransport, error) {
	cts := make([]comm.ClientTransport, P)
	if kind == appfl.TransportMPI {
		s, cs := mpicomm.NewFLWorld(P)
		for i := range cs {
			cts[i] = cs[i]
		}
		return s, cts, nil
	}
	srv, err := rpc.Listen("127.0.0.1:0", rpc.ServerConfig{NumClients: P, Rounds: rounds, ModelSize: dim})
	if err != nil {
		return nil, nil, err
	}
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- srv.Accept() }()
	dialErrs := make([]error, P)
	var wg sync.WaitGroup
	for i := 0; i < P; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := rpc.Dial(srv.Addr(), uint32(i), fmt.Sprintf("flround-client-%d", i))
			if err != nil {
				dialErrs[i] = err
				return
			}
			cts[i] = c
		}(i)
	}
	wg.Wait()
	for i, err := range dialErrs {
		if err != nil {
			srv.Close() // unblocks Accept; its result lands in the buffered channel
			return nil, nil, fmt.Errorf("dialing client %d: %w", i, err)
		}
	}
	if err := <-acceptErr; err != nil {
		srv.Close()
		return nil, nil, fmt.Errorf("accepting clients: %w", err)
	}
	return srv, cts, nil
}

// spanLayers turns the measured rounds' spans into per-layer samples.
func spanLayers(w workload, spans []span, res *appfl.Result, measured func(int) bool) map[string][]float64 {
	layers := make(map[string][]float64)
	byRound := analyzeRounds(spans, measured)
	rounds := make([]int, 0, len(byRound))
	for r := range byRound {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		l := byRound[r]
		wall := res.Rounds[r-1].WallSec
		layers["traced_round_s"] = append(layers["traced_round_s"], wall)
		layers["client_compute_s"] = append(layers["client_compute_s"], l.clientCompute)
		layers["rpc_send_s"] = append(layers["rpc_send_s"], l.rpcSend)
		layers["rpc_uplink_s"] = append(layers["rpc_uplink_s"], l.rpcUplink)
		layers["fold_gate_s"] = append(layers["fold_gate_s"], l.foldGate)
		layers["server_tail_s"] = append(layers["server_tail_s"], l.serverTail)
		layers["trace_coverage_frac"] = append(layers["trace_coverage_frac"], l.criticalPath/wall)
		if w.stream {
			layers["stream_gather_s"] = append(layers["stream_gather_s"], l.gather)
			layers["chunks_per_round"] = append(layers["chunks_per_round"], float64(l.chunks))
		}
	}
	return layers
}

// traceFile is the on-disk form of one traced federation.
type traceFile struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Transport    string             `json:"transport"`
	Rounds       int                `json:"rounds"`
	Warmup       int                `json:"warmup_rounds"`
	CaptureRound int                `json:"capture_round"`
	SelfByName   map[string]float64 `json:"self_seconds_by_name_measured_rounds"`
	Spans        []span             `json:"spans"`
}

func writeTrace(spec childSpec, spans []span, measured func(int) bool) error {
	if err := os.MkdirAll(filepath.Dir(spec.TraceFile), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(traceFile{
		Workload: spec.Workload, Seed: spec.Seed, Transport: spec.Transport,
		Rounds: spec.Rounds, Warmup: spec.Warmup, CaptureRound: spec.Rounds,
		SelfByName: selfByName(spans, measured), Spans: spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(spec.TraceFile, buf, 0o644)
}

// fsName names the filesystem holding dir, for the environment block.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
