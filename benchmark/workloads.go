package main

import (
	appfl "repro"
)

// numClients is the federation size of every workload: the paper's MNIST
// split (Section IV-A) over four clients, four connections.
const numClients = 4

// warmupRounds are discarded from every federation: the first rounds pay
// for buffer-pool fills, TCP window growth and the heap reaching its
// steady size, which no later round pays again.
const warmupRounds = 2

// workload is one federation the benchmark runs. Every field that shapes
// the program's input is derived from the seed; the program itself sees
// only the generated federation, model and Config.
type workload struct {
	name string
	why  string
	// rounds is the fixed length of one federation (one child process).
	// A run repeats whole federations until its time budget is used, so
	// every run also measures set-up several times.
	rounds int
	// lossCeiling is the correctness bound on final_loss after rounds
	// rounds: an untrained 10-class model sits at ln 10 ≈ 2.303.
	lossCeiling float64
	// sameLossAs names the workload whose final_loss this one must equal
	// bit for bit (the bit-identity contract of docs/architecture.md).
	sameLossAs string
	stream     bool // uplinks go through the chunk protocol
	journal    bool // the run is journaled (RunOptions.Journal)
	// build generates the federation's inputs from the seed.
	build func(seed uint64, rounds int) federation
}

// federation is the generated input of one run.
type federation struct {
	cfg     appfl.Config
	fed     *appfl.Federated
	factory appfl.Factory
	opts    appfl.RunOptions
}

// wide builds the ≥1M-parameter dense federation the wide_* workloads
// share: one 16-sample SGD step per client per round, so wire, rpc and the
// server fold carry the round instead of training. Evaluation runs on the
// final round only (ValidateEvery beyond the round count).
func wide(mutate func(f *federation)) func(seed uint64, rounds int) federation {
	return func(seed uint64, rounds int) federation {
		f := federation{
			cfg: appfl.Config{
				Algorithm:  appfl.AlgoFedAvg,
				Rounds:     rounds,
				LocalSteps: 1,
				BatchSize:  16,
				Seed:       seed,
			},
			fed:     appfl.MNISTFederation(numClients, 64, 64, seed),
			factory: appfl.MLPFactory(784, []int{1280}, 10, seed),
			opts:    appfl.RunOptions{Transport: appfl.TransportRPC, ValidateEvery: rounds + 1},
		}
		if mutate != nil {
			mutate(&f)
		}
		return f
	}
}

// workloads is the benchmark's fixed workload set; BENCHMARK.json names
// the same five in the same order (pinned by TestBenchmarkJSONMatches).
// No workload sets AggWorkers, AggShards, AggPrecision, ClientFraction or
// the legacy Clip/Epsilon pair: ROADMAP lists them as removal candidates.
var workloads = []workload{
	{
		name: "cnn_iiadmm",
		why: "The paper's CNN and IIADMM on the 4-client MNIST split: client training is ~95% of the round, " +
			"so it shows nn/tensor/optim/eval changes and predicts no move for codec, rpc or fold changes.",
		rounds:      7,
		lossCeiling: 1.0,
		build: func(seed uint64, rounds int) federation {
			return federation{
				cfg: appfl.Config{Algorithm: appfl.AlgoIIADMM, Rounds: rounds, LocalSteps: 2, Seed: seed},
				fed: appfl.MNISTFederation(numClients, 960, 240, seed),
				factory: appfl.CNNFactory(appfl.CNNConfig{
					InChannels: 1, Height: 28, Width: 28, Classes: 10,
					Conv1: 4, Conv2: 8, Hidden: 32,
				}, seed),
				opts: appfl.RunOptions{Transport: appfl.TransportRPC},
			}
		},
	},
	{
		name: "wide_dense",
		why: "1M-parameter MLP, FedAvg, one SGD step per round, dense f64 both ways: wire + comm/rpc + the core fold carry " +
			"the round; the control every other wide_* workload is read against.",
		rounds:      17,
		lossCeiling: 2.0,
		build:       wide(nil),
	},
	{
		name: "wide_dp_q8",
		why: "wide_dense + clip:1,laplace:5,quantize:8 uplink and f16 downlink: the paper's DP path plus compression, " +
			"1/8 the bytes, fused decode+fold of still-encoded payloads.",
		rounds:      17,
		lossCeiling: 2.0,
		build: wide(func(f *federation) {
			f.cfg.Pipeline = "clip:1,laplace:5,quantize:8"
			f.cfg.DownlinkF16 = true
		}),
	},
	{
		name: "wide_stream",
		why: "wide_dense through StreamChunk 16384 (63 ack-paced chunks per client per round): isolates chunk framing, " +
			"ack pacing and the streamed fold; final_loss must equal wide_dense bit for bit.",
		rounds:      17,
		lossCeiling: 2.0,
		sameLossAs:  "wide_dense",
		stream:      true,
		build: wide(func(f *federation) {
			f.cfg.StreamChunk = 16384
		}),
	},
	{
		name: "wide_journal",
		why: "wide_dense + RunOptions.Journal, CheckpointEvery 3: journal-before-effect adds four 8 MB admit records " +
			"and a commit per round and disables the fused fold; final_loss must equal wide_dense bit for bit.",
		rounds:      17,
		lossCeiling: 2.0,
		sameLossAs:  "wide_dense",
		journal:     true,
		// The journal itself is opened by the child (it needs a directory);
		// see runFederation. Every 3rd commit compacts, which keeps the
		// WAL's unsynced pages (40 MB a round) under ~120 MB: from ~250 MB
		// on, the kernel's background writeback to the checkout's disk,
		// not the program, set the round time on the VM this was sized on.
		// One round in three is a checkpoint round, so they sit in the tail.
		build: wide(func(f *federation) {
			f.opts.CheckpointEvery = 3
		}),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the federation sees, one value per
// workload. BENCHMARK.json carries the same table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_s", "s", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"uplink_mb_per_round", "MB", "lower", 0.01},
	{"downlink_mb_per_round", "MB", "lower", 0.01},
}

// perLayer are the single-layer metrics of the traced run, in the order of
// the README's table. A layer a workload does not use reports 0.
var perLayer = []metricDef{
	{"client_compute_s", "s", "lower", 0},
	{"pipeline_apply_s", "s", "lower", 0},
	{"pipeline_invert_s", "s", "lower", 0},
	{"wire_encode_mb_s", "MB/s", "higher", 0},
	{"wire_decode_mb_s", "MB/s", "higher", 0},
	{"rpc_send_s", "s", "lower", 0},
	{"rpc_uplink_s", "s", "lower", 0},
	{"transport_gap_s", "s", "lower", 0},
	{"fold_gate_s", "s", "lower", 0},
	{"fold_melem_s", "Melem/s", "higher", 0},
	{"stream_gather_s", "s", "lower", 0},
	{"chunks_per_round", "count", "lower", 0},
	{"chunk_retransmits", "count", "lower", 0},
	{"journal_append_s", "s", "lower", 0},
	{"journal_checkpoint_s", "s", "lower", 0},
	{"journal_mb_per_round", "MB", "lower", 0},
	{"journal_fsync_disk_s", "s", "lower", 0},
	{"server_tail_s", "s", "lower", 0},
	{"eval_s", "s", "lower", 0},
	{"alloc_mb_per_round", "MB", "lower", 0},
	{"mallocs_per_round", "count", "lower", 0},
	{"gc_cycles", "count", "lower", 0},
	{"trace_overhead_frac", "frac", "lower", 0},
	{"trace_coverage_frac", "frac", "higher", 0},
}
