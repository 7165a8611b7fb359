package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Fig4Options parameterizes the communication study of Section IV-D:
// 203 clients exchange a model with the server over 49 rounds (the first
// round is excluded in the paper because it includes compile time), once
// with RDMA-enabled MPI and once with gRPC over TCP.
type Fig4Options struct {
	Clients    int   // paper: 203
	Rounds     int   // paper: 49 measured rounds
	ModelDim   int   // parameters per update (paper-scale CNN ≈ 600k)
	BoxClients []int // clients sampled for the Fig. 4b box plot
	Seed       uint64
	// MeasureCodec, when true, measures this repository's real wire-codec
	// throughput on one update and uses it as the serialization rate of the
	// gRPC link, grounding the model in a measured quantity.
	MeasureCodec bool
}

func (o Fig4Options) withDefaults() Fig4Options {
	if o.Clients == 0 {
		o.Clients = 203
	}
	if o.Rounds == 0 {
		o.Rounds = 49
	}
	if o.ModelDim == 0 {
		o.ModelDim = 600_000
	}
	if len(o.BoxClients) == 0 {
		o.BoxClients = []int{1, 5, 100, 150, 200}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Fig4Client is one client's cumulative communication time under both
// transports (Fig. 4a: one point per client ID).
type Fig4Client struct {
	ClientID     int
	MPICumSec    float64
	GRPCCumSec   float64
	GRPCPerRound []float64 // retained for the box-plot sample
}

// Fig4Result aggregates the communication study.
type Fig4Result struct {
	PerClient []Fig4Client
	// MeanRatio is mean(gRPC cumulative) / mean(MPI cumulative); the paper
	// reports MPI "up to 10 times faster".
	MeanRatio float64
	// Boxes are the Fig. 4b five-number summaries for the sampled clients.
	Boxes map[int]metrics.Box
	// MaxSpread is the largest max/min round-time factor across sampled
	// clients; the paper reports ≈30×.
	MaxSpread float64
	// SerializeBps is the serialization rate used for the gRPC link.
	SerializeBps float64
}

// measureCodecThroughput encodes+decodes one paper-scale update the way
// the rpc transport does — Encoder.Encode on a kept encoder, Unmarshal
// into a recycled message — and returns the achieved bytes/second
// (counting the payload once). The first repetition sizes the buffers, as
// a connection's first round does.
func measureCodecThroughput(dim int) float64 {
	u := wire.LocalUpdate{Primal: make([]float64, dim)}
	var e wire.Encoder
	var out wire.LocalUpdate
	reps := 3
	start := nowSec()
	for i := 0; i < reps; i++ {
		if err := out.Unmarshal(wire.NewDecoder(e.Encode(&u))); err != nil {
			panic(err)
		}
	}
	elapsed := nowSec() - start
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	// Each rep serializes and deserializes once: 2 passes over the buffer.
	return float64(2*reps*e.Len()) / elapsed
}

// Fig4 runs the study and returns per-client cumulative times (Fig. 4a),
// box statistics (Fig. 4b), and a rendered table.
func Fig4(o Fig4Options) (*Fig4Result, *metrics.Table) {
	o = o.withDefaults()
	bytesPerMsg := 8 * o.ModelDim

	mpiLink := simnet.RDMALink()
	grpcLink := simnet.TCPLink()
	if o.MeasureCodec {
		grpcLink.SerializeBps = measureCodecThroughput(o.ModelDim)
	}

	master := rng.New(o.Seed)
	res := &Fig4Result{Boxes: map[int]metrics.Box{}, SerializeBps: grpcLink.SerializeBps}
	boxSet := map[int]bool{}
	for _, c := range o.BoxClients {
		boxSet[c] = true
	}

	var mpiSum, grpcSum float64
	for c := 0; c < o.Clients; c++ {
		cr := master.Split()
		fc := Fig4Client{ClientID: c}
		keepRounds := boxSet[c]
		if keepRounds {
			fc.GRPCPerRound = make([]float64, 0, o.Rounds)
		}
		for r := 0; r < o.Rounds; r++ {
			// Each round a client downloads w and uploads z: two messages.
			mpiT := mpiLink.TransferTime(bytesPerMsg, nil) * 2
			grpcT := grpcLink.TransferTime(bytesPerMsg, cr) + grpcLink.TransferTime(bytesPerMsg, cr)
			fc.MPICumSec += mpiT
			fc.GRPCCumSec += grpcT
			if keepRounds {
				fc.GRPCPerRound = append(fc.GRPCPerRound, grpcT)
			}
		}
		mpiSum += fc.MPICumSec
		grpcSum += fc.GRPCCumSec
		res.PerClient = append(res.PerClient, fc)
	}
	res.MeanRatio = grpcSum / mpiSum
	for _, c := range o.BoxClients {
		if c < len(res.PerClient) && res.PerClient[c].GRPCPerRound != nil {
			box := metrics.BoxStats(res.PerClient[c].GRPCPerRound)
			res.Boxes[c] = box
			if s := box.Spread(); s > res.MaxSpread {
				res.MaxSpread = s
			}
		}
	}

	t := metrics.NewTable(
		"Figure 4: communication times of gRPC and MPI (cumulative over rounds; box stats per sampled client)",
		"client", "MPI cum (s)", "gRPC cum (s)", "ratio", "gRPC min (s)", "median", "max", "spread",
	)
	for _, c := range o.BoxClients {
		if c >= len(res.PerClient) {
			continue
		}
		pc := res.PerClient[c]
		b := res.Boxes[c]
		t.AddRow(
			fmt.Sprintf("%d", c),
			fmt.Sprintf("%.3f", pc.MPICumSec),
			fmt.Sprintf("%.3f", pc.GRPCCumSec),
			fmt.Sprintf("%.1f", pc.GRPCCumSec/pc.MPICumSec),
			fmt.Sprintf("%.4f", b.Min),
			fmt.Sprintf("%.4f", b.Median),
			fmt.Sprintf("%.4f", b.Max),
			fmt.Sprintf("%.1f", b.Spread()),
		)
	}
	return res, t
}
