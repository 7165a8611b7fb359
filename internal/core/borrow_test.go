package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/rpc"
	"repro/internal/dataset"
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
				agg, err := NewAggregator(cfg, append([]float64(nil), w0...), P)
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
// state — for FedAvg and IIADMM the client's own parameter vector — and
// the client loop answers a repeated dispatch of the round it trained (a
// restarted server re-opening it) by sending that update again. Nothing
// between the two sends touches what it aliases, so the re-sent upload is
// the first one byte for byte. That holds for FedAvg too, whose lent
// gradient vector receives the repeated dispatch: over rpc the repeat is
// salvaged off the old connection by a Resume, decoded into that vector.
// It holds on a shared slot too: with P = 3 at MaxParallel 1, clients 1
// and 2 train both rounds on the one slot between client 0's round 1 and
// its repeat, and every upload of client 0 is the one it sends training
// alone on a slot of its own — the update aliases the client's vectors
// and pipeline, never the slot.
func TestRepeatedDispatchResendsBitEqualBytes(t *testing.T) {
	fed := tinyFed(t, 3, 96, 8)
	w0 := nn.FlattenParams(tinyFactory()(), nil)
	global := func(round, version int) *wire.GlobalModel {
		return &wire.GlobalModel{Round: uint32(round), Version: uint64(version), Weights: append([]float64(nil), w0...)}
	}
	script := func(repeat bool) []any {
		if repeat {
			return []any{global(1, 0), io.ErrUnexpectedEOF, global(1, 0), global(2, 1)}
		}
		return []any{global(1, 0), global(2, 1)}
	}
	for _, algo := range []string{AlgoFedAvg, AlgoIIADMM, AlgoICEADMM} {
		for _, pipe := range []string{"", "quantize:8"} {
			name := fmt.Sprintf("%s %q", algo, pipe)
			cfg := Config{Algorithm: algo, Rounds: 2, LocalSteps: 1, BatchSize: 16, Pipeline: pipe, Seed: 4}.WithDefaults()
			newClient := func(id int) ClientAlgorithm {
				c, err := newRunClient(cfg, id, rng.New(uint64(7+id)), tinyFactory()(), w0, fed.Clients[id])
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			alone := &encodingTransport{scriptedTransport: scriptedTransport{script: script(true)}}
			if err := runClient(cfg, newClient(0), alone, ClientOptions{}); err != nil {
				t.Fatal(err)
			}
			requireResent(t, name, alone.uploads)

			clients := []ClientAlgorithm{newClient(0), newClient(1), newClient(2)}
			bases := []*BaseClient{clients[0].(slotted).base(), clients[1].(slotted).base(), clients[2].(slotted).base()}
			slots, err := newSlotPool(bases, 1)
			if err != nil {
				t.Fatal(err)
			}
			opts := ClientOptions{slots: slots}
			shared := &interleavedTransport{encodingTransport: encodingTransport{scriptedTransport: scriptedTransport{script: script(true)}}}
			// Ahead of client 0's second receive — the lost connection —
			// the other two run their whole loops on the slot it gave back.
			shared.before = map[int]func(){2: func() {
				for _, i := range []int{1, 2} {
					ct := &encodingTransport{scriptedTransport: scriptedTransport{script: script(false)}}
					if err := runClient(cfg, clients[i], ct, opts); err != nil {
						t.Errorf("%s: client %d: %v", name, i, err)
					}
				}
			}}
			if err := runClient(cfg, clients[0], shared, opts); err != nil {
				t.Fatal(err)
			}
			requireResent(t, name+" on a shared slot", shared.uploads)
			for i := range shared.uploads {
				if !bytes.Equal(untimed(t, shared.uploads[i]), untimed(t, alone.uploads[i])) {
					t.Fatalf("%s: upload %d on the shared slot differs from the client's on a slot of its own", name, i)
				}
			}
		}
	}
	for _, pipe := range []string{"", "quantize:8"} {
		resendSalvagedOverRPC(t, fed, pipe)
	}
}

// requireResent fails unless uploads are round 1, its re-send byte for
// byte, and round 2.
func requireResent(t *testing.T, name string, uploads [][]byte) {
	t.Helper()
	if len(uploads) != 3 {
		t.Fatalf("%s: %d uploads, want round 1, its re-send, round 2", name, len(uploads))
	}
	if !bytes.Equal(uploads[0], uploads[1]) {
		t.Fatalf("%s: the re-sent round-1 update differs from the one first uploaded", name)
	}
}

// untimed re-encodes an uploaded update without its ComputeSec, the one
// field two runs of the same training do not share.
func untimed(t *testing.T, frame []byte) []byte {
	t.Helper()
	var u wire.LocalUpdate
	if err := u.Unmarshal(wire.NewDecoder(frame)); err != nil {
		t.Fatal(err)
	}
	u.ComputeSec = 0
	var enc wire.Encoder
	return append([]byte(nil), enc.Encode(&u)...)
}

// interleavedTransport runs before[n] ahead of its n-th receive.
type interleavedTransport struct {
	encodingTransport
	before map[int]func()
	recvs  int
}

func (it *interleavedTransport) RecvGlobal() (*wire.GlobalModel, error) {
	it.recvs++
	if f := it.before[it.recvs]; f != nil {
		f()
	}
	return it.encodingTransport.RecvGlobal()
}

// salvagingClient is an rpc client whose second receive first resumes its
// session, once the server has put a repeated dispatch on the old
// connection, so that the Resume salvages it. It keeps the bytes of every
// upload and whether each received model lay in grad.
type salvagingClient struct {
	*rpc.Client
	repeated <-chan struct{}
	grad     []float64
	recvs    int
	inGrad   []bool
	uploads  [][]byte
}

func (c *salvagingClient) RecvGlobal() (*wire.GlobalModel, error) {
	if c.recvs++; c.recvs == 2 {
		<-c.repeated
		if err := c.Resume(); err != nil {
			return nil, err
		}
	}
	gm, err := c.Client.RecvGlobal()
	if err == nil && !gm.Final {
		c.inGrad = append(c.inGrad, len(gm.Weights) > 0 && &gm.Weights[0] == &c.grad[0])
	}
	return gm, err
}

func (c *salvagingClient) SendUpdate(u *wire.LocalUpdate) error {
	var enc wire.Encoder
	c.uploads = append(c.uploads, append([]byte(nil), enc.Encode(u)...))
	return c.Client.SendUpdate(u)
}

// resendSalvagedOverRPC is TestRepeatedDispatchResendsBitEqualBytes's
// FedAvg row with a lent buffer: round 1, its repeat salvaged by a Resume
// into the client's gradient vector, round 2. The model is small, so a
// dispatch fits the socket buffers before anyone reads it.
func resendSalvagedOverRPC(t *testing.T, fed *dataset.Federated, pipe string) {
	t.Helper()
	name := fmt.Sprintf("fedavg rpc resume %q", pipe)
	model := sequentialOf(nn.NewMLP(28*28, []int{2}, 10, rng.New(99)))
	w0 := append([]float64(nil), nn.ParamVector(model)...)
	cfg := Config{Algorithm: AlgoFedAvg, Rounds: 2, LocalSteps: 1, BatchSize: 16, Pipeline: pipe, Seed: 4}.WithDefaults()
	c, err := newRunClient(cfg, 0, rng.New(7), model, w0, fed.Clients[0])
	if err != nil {
		t.Fatal(err)
	}
	st, cts, err := newServerTransport(TransportRPC, 1, len(w0), cfg.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	repeated := make(chan struct{})
	ct := &salvagingClient{Client: cts[0].(*rpc.Client), repeated: repeated, grad: nn.GradVector(model)}
	defer ct.Close()
	done := make(chan error, 1)
	go func() { done <- runClient(cfg, c, ct, ClientOptions{}) }()
	dispatch := func(round, version int) {
		t.Helper()
		gm := &wire.GlobalModel{Round: uint32(round), Version: uint64(version), Weights: w0}
		if err := st.SendTo([]int{0}, gm); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	gather := func() {
		t.Helper()
		ups, err := st.GatherUntil(1, 10*time.Second) // a lost repeat fails, not hangs
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		comm.ReleaseUpdates(ups)
	}
	dispatch(1, 0)
	gather()
	dispatch(1, 0) // the repeat, on the connection the client is leaving
	close(repeated)
	gather()
	dispatch(2, 1)
	gather()
	if err := st.SendTo([]int{0}, &wire.GlobalModel{Final: true}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(ct.uploads) != 3 || len(ct.inGrad) != 3 {
		t.Fatalf("%s: %d uploads of %d models, want round 1, its re-send, round 2", name, len(ct.uploads), len(ct.inGrad))
	}
	for i, in := range ct.inGrad {
		if !in {
			t.Fatalf("%s: received model %d did not lie in the client's gradient vector", name, i+1)
		}
	}
	if !bytes.Equal(ct.uploads[0], ct.uploads[1]) {
		t.Fatalf("%s: the re-sent round-1 update differs from the one first uploaded", name)
	}
}
