package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// TestMain lets the test binary stand in for the harness binary: the smoke
// test re-executes it once per federation, exactly as go run does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // even the median has only 9.5 samples beyond it
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true}, // p90 would leave 9.9
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if got := quantile([]float64{10, 20, 30, 40, 50}, 0.9); math.Abs(got-46) > 1e-9 {
		t.Errorf("p90 = %v, want 46", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if got := relGap(2, 2.1); got < 0.0499 || got > 0.0501 {
		t.Errorf("relGap = %v, want 0.05", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: spanRound, Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms}, // sticks out: clipped at 100
		{ID: 4, Parent: 0, Name: "d", Start: -20 * ms, End: 5 * ms},  // starts early: clipped at 0
		{ID: 5, Parent: 2, Name: "e", Start: 25 * ms, End: 35 * ms},
	}
	fillSelfTimes(spans)
	// Covered: [0,5] + [10,50] + [90,100] = 55 ms.
	want := []time.Duration{45 * ms, 20 * ms, 20 * ms, 30 * ms, 25 * ms, 10 * ms}
	for i, w := range want {
		if spans[i].Self != w {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, spans[i].Self, w)
		}
	}
}

func TestAnalyzeRounds(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: spanSendTo, Round: 3, Client: -1, Start: 0, End: 10 * ms},
		{Name: spanCompute, Round: 3, Client: 0, Start: 12 * ms, End: 52 * ms},
		{Name: spanCompute, Round: 3, Client: 1, Start: 11 * ms, End: 71 * ms}, // slowest, and last to upload
		{Name: spanGatherFrom, Round: 3, Client: -1, Start: 10 * ms, End: 80 * ms},
		{Name: spanFold, Round: 3, Client: -1, Start: 81 * ms, End: 86 * ms},
		{Name: spanTail, Round: 3, Client: -1, Start: 86 * ms, End: 90 * ms},
		{Name: spanRecvChunk, Round: 3, Client: 0},
		{Name: spanSendTo, Round: 4, Client: -1, Start: 90 * ms, End: 95 * ms}, // not wanted
	}
	got := analyzeRounds(spans, func(r int) bool { return r == 3 })
	if len(got) != 1 {
		t.Fatalf("analyzed %d rounds, want 1", len(got))
	}
	l := got[3]
	near := func(name string, got, want float64) {
		if d := got - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("clientCompute", l.clientCompute, 0.060)
	near("rpcSend", l.rpcSend, 0.010)
	near("rpcUplink", l.rpcUplink, 0.009)
	near("gather", l.gather, 0.070)
	near("foldGate", l.foldGate, 0.005)
	near("serverTail", l.serverTail, 0.004)
	near("criticalPath", l.criticalPath, 0.089)
	if l.chunks != 1 {
		t.Errorf("chunks = %d, want 1", l.chunks)
	}
}

// fullServer answers the whole transport surface; plainServer only the
// mandatory comm.ServerTransport (a nil embedded interface: the test
// touches none of its methods).
type plainServer struct {
	comm.ServerTransport
	sent, gathered int
}

func (s *plainServer) SendTo(clients []int, m *wire.GlobalModel) error { s.sent++; return nil }
func (s *plainServer) Broadcast(m *wire.GlobalModel) error             { s.sent++; return nil }
func (s *plainServer) GatherFrom(clients []int) ([]*wire.LocalUpdate, error) {
	s.gathered++
	return []*wire.LocalUpdate{{ClientID: 0, Round: 1, Primal: []float64{1}}}, nil
}

type fullServer struct {
	plainServer
	chunks, acks int
}

func (s *fullServer) RecvChunkFrom(client int) (*wire.ModelChunk, error) {
	s.chunks++
	return &wire.ModelChunk{ClientID: uint32(client), Round: 1, Index: 0, Count: 1,
		NumSamples: 16, Payload: &wire.Payload{Enc: wire.EncDense, Dim: 1, Dense: []float64{1}}}, nil
}
func (s *fullServer) SendChunkAck(client int, a *wire.ChunkAck) error { s.acks++; return nil }
func (s *fullServer) Unreachable() []int                              { return []int{2} }

type plainClient struct {
	comm.ClientTransport
	recvd, sent int
}

func (c *plainClient) RecvGlobal() (*wire.GlobalModel, error) {
	c.recvd++
	return &wire.GlobalModel{Round: 1}, nil
}
func (c *plainClient) SendUpdate(m *wire.LocalUpdate) error { c.sent++; return nil }

type fullClient struct {
	plainClient
	chunks, acks, resumes int
}

func (c *fullClient) SendChunk(mc *wire.ModelChunk) error { c.chunks++; return nil }
func (c *fullClient) RecvChunkAck(timeout time.Duration) (*wire.ChunkAck, error) {
	c.acks++
	return &wire.ChunkAck{}, nil
}
func (c *fullClient) Resume() error { c.resumes++; return nil }

// TestDecoratorsForward pins that the timing decorators hand every call,
// mandatory and optional, to the transport they wrap, and that a transport
// lacking an optional interface still lacks it behind the decorator.
func TestDecoratorsForward(t *testing.T) {
	tr := newTracer()
	inner := &fullServer{}
	cp := &capture{round: 1}
	srv := newTracedServer(inner, tr, cp)
	var st comm.ServerTransport = srv

	if err := st.SendTo([]int{0}, &wire.GlobalModel{Round: 1, Weights: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	cg, ok := st.(comm.ChunkGatherer)
	if !ok {
		t.Fatal("decorated server is not a comm.ChunkGatherer")
	}
	if _, err := cg.RecvChunkFrom(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cg.RecvChunkFrom(0); err != nil { // same index again: a retransmit
		t.Fatal(err)
	}
	if err := cg.SendChunkAck(0, &wire.ChunkAck{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GatherFrom([]int{0}); err != nil {
		t.Fatal(err)
	}
	srv.Acquire(1)()
	if err := st.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	if got := st.(comm.Unreachables).Unreachable(); len(got) != 1 || got[0] != 2 {
		t.Errorf("Unreachable = %v, want [2]", got)
	}
	if inner.sent != 2 || inner.gathered != 1 || inner.chunks != 2 || inner.acks != 1 {
		t.Errorf("inner server saw sent=%d gathered=%d chunks=%d acks=%d", inner.sent, inner.gathered, inner.chunks, inner.acks)
	}
	if srv.retransmits != 1 {
		t.Errorf("retransmits=%d, want 1", srv.retransmits)
	}
	if cp.global == nil || len(cp.updates) != 1 || len(cp.chunks) != 1 {
		t.Errorf("capture round not captured: global=%v updates=%d chunks=%d", cp.global != nil, len(cp.updates), len(cp.chunks))
	}

	innerC := &fullClient{}
	var ct comm.ClientTransport = newTracedClient(innerC, tr, 0)
	if _, err := ct.RecvGlobal(); err != nil {
		t.Fatal(err)
	}
	cs := ct.(comm.ChunkSender)
	if err := cs.SendChunk(&wire.ModelChunk{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.RecvChunkAck(0); err != nil {
		t.Fatal(err)
	}
	if err := ct.SendUpdate(&wire.LocalUpdate{}); err != nil {
		t.Fatal(err)
	}
	if err := ct.(comm.SessionResumer).Resume(); err != nil {
		t.Fatal(err)
	}
	if innerC.recvd != 1 || innerC.sent != 1 || innerC.chunks != 1 || innerC.acks != 1 || innerC.resumes != 1 {
		t.Errorf("inner client saw %+v", innerC)
	}

	// One span per call, all under the round's root span, which is closed.
	names := make(map[string]int)
	spans := tr.finish()
	for _, s := range spans {
		names[s.Name]++
		if s.Name != spanRound && s.Parent != 0 {
			t.Errorf("span %s has parent %d, want the round span 0", s.Name, s.Parent)
		}
	}
	for name, want := range map[string]int{spanRound: 1, spanSendTo: 1, spanGatherFrom: 1, spanRecvChunk: 2, spanSendAck: 1,
		spanFold: 1, spanTail: 1, spanRecvGlobal: 1, spanCompute: 1, spanSendChunk: 1, spanRecvAck: 1, spanSendUpdate: 1} {
		if names[name] != want {
			t.Errorf("%d %s spans, want %d", names[name], name, want)
		}
	}
	if spans[0].End <= spans[0].Start {
		t.Error("the round span was never closed")
	}

	// A transport without the optional interfaces: errors, not panics.
	bare := newTracedServer(&plainServer{}, newTracer(), nil)
	if _, err := bare.RecvChunkFrom(0); err == nil {
		t.Error("RecvChunkFrom over a transport that cannot gather chunks must fail")
	}
	if err := bare.SendChunkAck(0, &wire.ChunkAck{}); err == nil {
		t.Error("SendChunkAck over a transport that cannot gather chunks must fail")
	}
	if got := bare.Unreachable(); got != nil {
		t.Errorf("Unreachable over a connectionless transport = %v, want nil", got)
	}
	bareC := newTracedClient(&plainClient{}, newTracer(), 0)
	if err := bareC.SendChunk(&wire.ModelChunk{}); err == nil {
		t.Error("SendChunk over a transport that cannot stream must fail")
	}
	if _, err := bareC.RecvChunkAck(0); err == nil {
		t.Error("RecvChunkAck over a transport that cannot stream must fail")
	}
	if err := bareC.Resume(); err == nil {
		t.Error("Resume over a transport that cannot resume must fail")
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the tables the harness
// runs from, so neither can drift from the other.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if strings.Join(spec.Command, " ") != "go run ./benchmark" || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match the harness's %v", kind, m.name, m.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs all five workloads, end to end and traced, on 3-round
// federations through the same code path as the full benchmark, and checks
// that every metric is printed and every trace written.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten short federations")
	}
	out := t.TempDir()
	var stdout bytes.Buffer
	start := time.Now()
	code := parentMain([]string{"-smoke", "-out", out}, &stdout)
	t.Logf("smoke took %.1f s", time.Since(start).Seconds())
	text := stdout.String()
	if code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, text)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if !strings.Contains(text, " "+m.name+" ") {
				t.Errorf("metric %s was not printed", m.name)
			}
		}
	}
	for _, w := range workloads {
		path := filepath.Join(out, "trace_"+w.name+".json")
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
			continue
		}
		var tf traceFile
		if err := json.Unmarshal(buf, &tf); err != nil || len(tf.Spans) == 0 || tf.Workload != w.name {
			t.Errorf("%s: unreadable or empty trace (%v)", path, err)
		}
	}
	var rep report
	buf, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Environment.GoMaxProcs == 0 || len(rep.EndToEnd) != 1 || len(rep.PerLayer) != len(workloads) {
		t.Errorf("result.json: correct=%v env=%+v", rep.Correct, rep.Environment)
	}
	// Journals are scratch: nothing of them may outlive the run.
	left, _ := filepath.Glob(filepath.Join(out, "*journal-*"))
	if len(left) > 0 {
		t.Errorf("journal directories left behind: %v", left)
	}
}
