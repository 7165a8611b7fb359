package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
)

// CommVolumeRow records one configuration's measured traffic.
type CommVolumeRow struct {
	Algorithm string
	// Pipeline is the update-pipeline spec of the run ("" = the dense
	// default stack).
	Pipeline  string
	UploadB   uint64 // client→server bytes over the whole run
	DownloadB uint64 // server→client bytes
	// UploadPerClientRound is upload bytes normalized by clients×rounds×
	// model bytes — 1.0 means "one model per client per round".
	UploadPerClientRound float64
	// UploadBPerRound is the raw client→server bytes per communication
	// round, the quantity the compression stages shrink.
	UploadBPerRound float64
}

// CommVolumeOptions scales the measurement run.
type CommVolumeOptions struct {
	Clients int
	Rounds  int
	Seed    uint64
}

// CommVolumePipelines is the default set of update-pipeline stacks the
// compression comparison measures against the dense baseline.
var CommVolumePipelines = []string{
	"clip:1,topk:0.1",
	"clip:1,quantize:8",
	"clip:1,f16",
}

// CommVolume measures the Section III-A claim with real transports and
// byte accounting — FedAvg and IIADMM upload exactly one model per client
// per round, ICEADMM uploads two (primal + dual) — and then re-measures
// FedAvg under the compression stacks of the update pipeline, reporting
// uploaded bytes per round with and without compression.
func CommVolume(o CommVolumeOptions) ([]CommVolumeRow, *metrics.Table, error) {
	if o.Clients == 0 {
		o.Clients = 4
	}
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	train, test := dataset.MNIST(dataset.SynthConfig{Train: 64 * o.Clients, Test: 32, Seed: o.Seed})
	shards := dataset.PartitionIID(train, o.Clients, rng.New(o.Seed))
	fed := &dataset.Federated{Clients: shards, Test: test}
	factory := func() nn.Module { return nn.NewMLP(28*28, []int{16}, 10, rng.New(o.Seed+5)) }
	modelBytes := 8 * nn.NumParams(factory())

	var rows []CommVolumeRow
	t := metrics.NewTable(
		"Communication volume per algorithm and pipeline (measured on the wire)",
		"algorithm", "pipeline", "upload bytes", "upload B/round", "download bytes", "models uploaded / client / round",
	)
	measure := func(algo, pipe string) error {
		cfg := core.Config{Algorithm: algo, Rounds: o.Rounds, LocalSteps: 1, BatchSize: 64, Seed: o.Seed, Pipeline: pipe}
		res, err := core.Run(cfg, fed, factory, core.RunOptions{Transport: core.TransportRPC})
		if err != nil {
			return err
		}
		norm := float64(res.UploadsB) / float64(o.Clients*o.Rounds*modelBytes)
		perRound := float64(res.UploadsB) / float64(o.Rounds)
		rows = append(rows, CommVolumeRow{
			Algorithm:            algo,
			Pipeline:             pipe,
			UploadB:              res.UploadsB,
			DownloadB:            res.DownloadsB,
			UploadPerClientRound: norm,
			UploadBPerRound:      perRound,
		})
		label := pipe
		if label == "" {
			label = "dense"
		}
		t.AddRow(algo, label, fmt.Sprintf("%d", res.UploadsB), fmt.Sprintf("%.0f", perRound),
			fmt.Sprintf("%d", res.DownloadsB), fmt.Sprintf("%.3f", norm))
		return nil
	}
	for _, algo := range []string{core.AlgoFedAvg, core.AlgoICEADMM, core.AlgoIIADMM} {
		if err := measure(algo, ""); err != nil {
			return nil, nil, err
		}
	}
	for _, pipe := range CommVolumePipelines {
		if err := measure(core.AlgoFedAvg, pipe); err != nil {
			return nil, nil, err
		}
	}
	return rows, t, nil
}
