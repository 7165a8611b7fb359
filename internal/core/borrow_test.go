package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/wire"
)

// sendRecorder is a ServerTransport that keeps what the last SendTo was
// handed: the dense weights or, on the f16 downlink, the codes.
type sendRecorder struct {
	comm.ServerTransport
	weights []float64
	codes   []byte
}

func (r *sendRecorder) SendTo(ids []int, m *wire.GlobalModel) error {
	r.weights, r.codes = m.Weights, nil
	if m.WeightsP != nil {
		r.codes = m.WeightsP.Codes
	}
	return r.ServerTransport.SendTo(ids, m)
}

// TestDispatchBorrowsTheLiveModel: the dispatcher hands the transport
// every aggregator's own model vector (GlobalWeights), not a copy — the
// ADMM servers' as well as FedAvg's — and every transport has serialized
// it by the time SendTo returns: rpc encodes and writes, mpi and pubsub
// encode, and the fault layer passes the send through.
// Overwritten right after the send, the model still reaches every client
// with the bits it had before, dense and through the f16 downlink (whose
// codes are the dispatcher's one kept buffer).
func TestDispatchBorrowsTheLiveModel(t *testing.T) {
	const P, dim = 3, 5000 // 40 KB: rpc sends the block from the vector itself
	w0 := make([]float64, dim)
	rng.New(5).FillNormal(w0, 0, 1)
	for _, tr := range []struct {
		name string
		kind Transport
		plan string
	}{
		{"mpi", TransportMPI, ""},
		{"pubsub", TransportPubSub, ""},
		{"rpc", TransportRPC, ""},
		{"rpc+faults", TransportRPC, "delay:100%:2:1,reorder"},
	} {
		for _, algo := range []string{AlgoFedAvg, AlgoIIADMM, AlgoICEADMM} {
			for _, f16 := range []bool{false, true} {
				name := fmt.Sprintf("%s %s f16=%v", tr.name, algo, f16)
				cfg := Config{Algorithm: algo, DownlinkF16: f16}.WithDefaults()
				want := append([]float64(nil), w0...)
				if f16 {
					gm := &wire.GlobalModel{Weights: want}
					if _, err := EncodeDownlinkF16Into(gm, nil); err != nil {
						t.Fatal(err)
					}
					if err := DecodeGlobal(gm); err != nil {
						t.Fatal(err)
					}
					want = gm.Weights
				}
				agg, err := NewAggregator(cfg, w0, P)
				if err != nil {
					t.Fatal(err)
				}
				st, cts, err := newServerTransport(tr.kind, P, dim, 1)
				if err != nil {
					t.Fatal(err)
				}
				if tr.plan != "" {
					plan, err := faults.Parse(tr.plan)
					if err != nil {
						t.Fatal(err)
					}
					inj := faults.MustInjector(plan, P, 1)
					st = inj.WrapServer(st)
					for i := range cts {
						cts[i] = inj.WrapClient(i, cts[i])
					}
				}
				rec := &sendRecorder{ServerTransport: st}
				got := make([][]float64, P)
				errs := make([]error, P)
				var wg sync.WaitGroup
				for i, ct := range cts {
					wg.Add(1)
					go func(i int, ct comm.ClientTransport) {
						defer wg.Done()
						gm, err := ct.RecvGlobal()
						if err == nil {
							err = DecodeGlobal(gm)
						}
						if err == nil {
							got[i] = append([]float64(nil), gm.Weights...)
						}
						errs[i] = err
					}(i, ct)
				}
				d := newDispatcher(cfg, agg, rec)
				if _, err := d.send([]int{0, 1, 2}, 1, P); err != nil {
					t.Fatal(err)
				}
				live := agg.GlobalWeights()
				if f16 {
					if rec.weights != nil || len(rec.codes) == 0 || &rec.codes[0] != &d.f16buf[0] {
						t.Fatalf("%s: the dispatch did not carry the dispatcher's code buffer", name)
					}
				} else if len(rec.weights) == 0 || &rec.weights[0] != &live[0] {
					t.Fatalf("%s: the dispatch carried a copy, not the live model", name)
				}
				for i := range live {
					live[i] = math.NaN()
				}
				wg.Wait()
				for i := range cts {
					if errs[i] != nil {
						t.Fatalf("%s: client %d: %v", name, i, errs[i])
					}
					requireBitEqual(t, name+" client model", want, got[i])
				}
				d.release()
				st.Close()
				for _, ct := range cts {
					ct.Close()
				}
			}
		}
	}
}

// encodingTransport is a scriptedTransport that keeps the wire bytes of
// every upload, encoded at the moment it is sent.
type encodingTransport struct {
	scriptedTransport
	uploads [][]byte
}

func (e *encodingTransport) SendUpdate(u *wire.LocalUpdate) error {
	var enc wire.Encoder
	e.uploads = append(e.uploads, append([]byte(nil), enc.Encode(u)...))
	return nil
}

// TestRepeatedDispatchResendsBitEqualBytes: an update aliases the client's
// state — for FedAvg and IIADMM the model's own parameter vector — and the
// client loop answers a repeated dispatch of the round it trained (a
// restarted server re-opening it) by sending that update again. Nothing
// between the two sends touches what it aliases, so the re-sent upload is
// the first one byte for byte.
func TestRepeatedDispatchResendsBitEqualBytes(t *testing.T) {
	fed := tinyFed(t, 1, 32, 8)
	w0 := nn.FlattenParams(tinyFactory()(), nil)
	global := func(round, version int) *wire.GlobalModel {
		return &wire.GlobalModel{Round: uint32(round), Version: uint64(version), Weights: append([]float64(nil), w0...)}
	}
	for _, algo := range []string{AlgoFedAvg, AlgoIIADMM, AlgoICEADMM} {
		for _, pipe := range []string{"", "quantize:8"} {
			cfg := Config{Algorithm: algo, Rounds: 2, LocalSteps: 1, BatchSize: 16, Pipeline: pipe, Seed: 4}.WithDefaults()
			c, err := newRunClient(cfg, 0, rng.New(7), tinyFactory()(), w0, fed.Clients[0])
			if err != nil {
				t.Fatal(err)
			}
			ct := &encodingTransport{scriptedTransport: scriptedTransport{script: []any{
				global(1, 0), io.ErrUnexpectedEOF, global(1, 0), global(2, 1),
			}}}
			if err := runClient(cfg, c, ct, ClientOptions{}); err != nil {
				t.Fatal(err)
			}
			if len(ct.uploads) != 3 {
				t.Fatalf("%s %q: %d uploads, want round 1, its re-send, round 2", algo, pipe, len(ct.uploads))
			}
			if !bytes.Equal(ct.uploads[0], ct.uploads[1]) {
				t.Fatalf("%s %q: the re-sent round-1 update differs from the one first uploaded", algo, pipe)
			}
		}
	}
}
