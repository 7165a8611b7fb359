package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/wire"
)

// recycleFrames encodes one upload per payload encoding over the same
// dim-sized release, plus a legacy dense one: the frames a pooled
// LocalUpdate may be decoded from in any order.
func recycleFrames(t *testing.T, dim int) map[string][]byte {
	t.Helper()
	v := make([]float64, dim)
	for i := range v {
		v[i] = float64(i%97)/97 - 0.5
	}
	frames := map[string][]byte{}
	for name, spec := range map[string]string{"quant": "quantize:8", "quant12": "quantize:12", "f16": "f16", "sparse": "topk:0.25"} {
		specs, err := pipeline.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := specs.Build(rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		u := pipeline.NewDense(slices.Clone(v))
		if err := p.Apply(u, 0); err != nil {
			t.Fatal(err)
		}
		m := &wire.LocalUpdate{ClientID: 1, Round: 2, NumSamples: 8, PrimalP: u}
		frames[name] = slices.Clone(new(wire.Encoder).Encode(m))
	}
	m := &wire.LocalUpdate{ClientID: 1, Round: 2, NumSamples: 8, Primal: v}
	frames["dense"] = slices.Clone(new(wire.Encoder).Encode(m))
	return frames
}

// rejectedByEveryAggregator fails the test for each aggregator — dense or
// taking the fused fold — that accepts a one-update batch of u.
func rejectedByEveryAggregator(t *testing.T, u *wire.LocalUpdate, dim int) {
	t.Helper()
	w0 := func() []float64 { return make([]float64, dim) } // each aggregator owns its own
	fused := func(agg Aggregator) Aggregator {
		inv, err := NewServerPipeline(Config{Pipeline: "quantize:8"})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := EnableFusedFold(agg, inv); !ok {
			t.Fatalf("%T does not take the fused fold", agg)
		}
		return agg
	}
	buffered := func() *BufferedAggregator {
		b, err := NewBufferedAggregator(w0(), 0.5, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, agg := range map[string]Aggregator{
		"fedavg":         NewFedAvgServer(w0(), 1),
		"fedavg/fused":   fused(NewFedAvgServer(w0(), 1)),
		"buffered":       buffered(),
		"buffered/fused": fused(buffered()),
		"iceadmm":        NewICEADMMServer(w0(), 1, 1),
		"iiadmm":         NewIIADMMServer(w0(), 1, 1),
	} {
		if err := agg.Aggregate([]*wire.LocalUpdate{u}); err == nil {
			t.Errorf("%s folded an update that carries no vector", name)
		}
	}
}

// decodesLikeFresh decodes frame into u, whatever u held before, and
// reports any field in which the result differs from decoding the frame
// into a new message.
func decodesLikeFresh(u *wire.LocalUpdate, frame []byte) error {
	var fresh wire.LocalUpdate
	if err := errors.Join(u.Unmarshal(wire.NewDecoder(frame)), fresh.Unmarshal(wire.NewDecoder(frame))); err != nil {
		return err
	}
	if (u.PrimalP == nil) != (fresh.PrimalP == nil) || !slices.Equal(u.Primal, fresh.Primal) || len(u.Dual) != 0 {
		return errors.New("primal/payload presence differs from a fresh decode")
	}
	p, f := u.PrimalP, fresh.PrimalP
	if p == nil {
		return nil
	}
	if p.Enc != f.Enc || p.Dim != f.Dim || p.Bits != f.Bits ||
		math.Float64bits(p.Scale) != math.Float64bits(f.Scale) || math.Float64bits(p.Offset) != math.Float64bits(f.Offset) ||
		!slices.Equal(p.Codes, f.Codes) || !slices.Equal(p.Indices, f.Indices) || !slices.Equal(p.Values, f.Values) || len(p.Dense) != 0 {
		return fmt.Errorf("payload differs from a fresh decode:\n got  %s dim %d bits %d scale %v offset %v, %d codes %d indices %d values\n want %s dim %d bits %d scale %v offset %v, %d codes %d indices %d values",
			p.Enc, p.Dim, p.Bits, p.Scale, p.Offset, len(p.Codes), len(p.Indices), len(p.Values),
			f.Enc, f.Dim, f.Bits, f.Scale, f.Offset, len(f.Codes), len(f.Indices), len(f.Values))
	}
	return p.Validate()
}

// TestRecycledPayloadCarriesNothingOver: a LocalUpdate that is decoded
// into again and again keeps one receive payload and its buffers, and
// nothing else. Whatever order the encodings arrive in, the decoded update
// equals a fresh decode of the same frame — no Scale, Offset, Bits or
// Indices of an earlier frame, no PrimalP under a dense frame — and once
// released to the pool, both the update and a payload reference that
// outlived the release read as empty, which every aggregator rejects.
func TestRecycledPayloadCarriesNothingOver(t *testing.T) {
	const dim = 4096
	frames := recycleFrames(t, dim)
	order := []string{"quant", "f16", "dense", "quant12", "sparse", "quant", "dense", "sparse", "f16", "quant12", "f16"}

	decode := func(u *wire.LocalUpdate, name string) {
		t.Helper()
		if err := decodesLikeFresh(u, frames[name]); err != nil {
			t.Fatalf("%s after another encoding: %v", name, err)
		}
	}

	t.Run("one message, every order", func(t *testing.T) {
		var u wire.LocalUpdate
		var codes *byte
		for _, name := range order {
			decode(&u, name)
			if p := u.PrimalP; p != nil && len(p.Codes) == 2*dim {
				// The widest code block sizes the buffer once.
				if codes != nil && codes != &p.Codes[0] {
					t.Errorf("%s: the kept code buffer was reallocated", name)
				}
				codes = &p.Codes[0]
			}
		}
	})

	t.Run("a reference past the release reads empty", func(t *testing.T) {
		u := comm.NewUpdate()
		decode(u, "quant")
		held := u.PrimalP
		comm.ReleaseUpdate(u)
		if u.PrimalP != nil || len(u.Primal) != 0 {
			t.Fatalf("released update still carries a vector: %+v", u)
		}
		if held.Enc != wire.EncDense || held.Dim != 0 || held.Bits != 0 || held.Scale != 0 || held.Offset != 0 ||
			len(held.Codes)+len(held.Indices)+len(held.Values)+len(held.Dense) != 0 {
			t.Fatalf("payload reference held past the release still reads data: %+v", held)
		}
		rejectedByEveryAggregator(t, u, dim)
		rejectedByEveryAggregator(t, &wire.LocalUpdate{NumSamples: 8, PrimalP: held}, dim)
	})

	// The pool under concurrent decoders, as the rpc read loops use it:
	// run with -race.
	t.Run("pooled, concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					name := order[(i+g)%len(order)]
					u := comm.NewUpdate()
					if err := decodesLikeFresh(u, frames[name]); err != nil {
						t.Errorf("pooled decode of %s: %v", name, err)
						return
					}
					comm.ReleaseUpdate(u)
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestRecycledGlobalModelCarriesNothingOver: the client side of the same
// contract — RecvGlobal decodes every model, in its receive form, into one
// kept GlobalModel: an f16 broadcast densifies into the same weight buffer
// a dense one decodes into, and neither leaves a payload behind.
func TestRecycledGlobalModelCarriesNothingOver(t *testing.T) {
	w := []float64{1, -2, 0.5, 1024}
	f16 := &wire.GlobalModel{Round: 1, Weights: slices.Clone(w)}
	if _, err := EncodeDownlinkF16Into(f16, nil); err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		slices.Clone(new(wire.Encoder).Encode(f16)),
		slices.Clone(new(wire.Encoder).Encode(&wire.GlobalModel{Round: 2, Weights: w})),
	}
	var gm wire.GlobalModel
	var kept *float64
	for i := 0; i < 6; i++ {
		if err := gm.UnmarshalDense(wire.NewDecoder(frames[i%2])); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gm.Weights, w) || gm.WeightsP != nil || gm.Round != uint32(1+i%2) {
			t.Fatalf("decode %d: round %d, weights %v, payload %v", i, gm.Round, gm.Weights, gm.WeightsP)
		}
		if kept != nil && kept != &gm.Weights[0] {
			t.Errorf("decode %d: the kept weight buffer was reallocated", i)
		}
		kept = &gm.Weights[0]
	}
}
