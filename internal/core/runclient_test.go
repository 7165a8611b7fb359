package core

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/comm/rpc"
	"repro/internal/wire"
)

// scriptedTransport plays a fixed sequence of RecvGlobal outcomes at the
// client loop and records what it does in response.
type scriptedTransport struct {
	script  []any // *wire.GlobalModel or error, in order
	sent    []wire.LocalUpdate
	resumes int
	resume  func(attempt int) error // nil: every Resume splices
	lent    []float64               // what the client loop lent the receive
}

func (s *scriptedTransport) RecvGlobal() (*wire.GlobalModel, error) {
	if len(s.script) == 0 {
		return &wire.GlobalModel{Final: true}, nil
	}
	next := s.script[0]
	s.script = s.script[1:]
	if err, ok := next.(error); ok {
		return nil, err
	}
	return next.(*wire.GlobalModel), nil
}

func (s *scriptedTransport) ReceiveInto(w []float64) { s.lent = w }

func (s *scriptedTransport) SendUpdate(u *wire.LocalUpdate) error {
	s.sent = append(s.sent, *u)
	return nil
}

func (s *scriptedTransport) Resume() error {
	s.resumes++
	if s.resume != nil {
		return s.resume(s.resumes)
	}
	return nil
}

func (s *scriptedTransport) Stats() comm.Snapshot { return comm.Snapshot{} }
func (s *scriptedTransport) Close() error         { return nil }

// countingClient is a ClientAlgorithm that counts its training calls and
// stamps each update with the call number.
type countingClient struct{ trained []int }

func (c *countingClient) LocalUpdate(round int, w []float64) (*wire.LocalUpdate, error) {
	c.trained = append(c.trained, round)
	return &wire.LocalUpdate{ClientID: 4, Round: uint32(round), NumSamples: 1,
		Primal: []float64{float64(len(c.trained))}}, nil
}

func model(round, version int) *wire.GlobalModel {
	return &wire.GlobalModel{Round: uint32(round), Version: uint64(version), Weights: []float64{0}}
}

// TestClientLoopAnswersARepeatedDispatchFromMemory: a connection that dies
// is resumed, a model already trained on (same round, same version) is
// answered with the same update and no second LocalUpdate, and a model
// that reuses the round number at a new version is trained afresh.
func TestClientLoopAnswersARepeatedDispatchFromMemory(t *testing.T) {
	ct := &scriptedTransport{script: []any{
		model(1, 0),
		io.ErrUnexpectedEOF, // the server dies mid-frame
		model(1, 0),         // its successor re-opens round 1
		model(2, 1),
		model(2, 2), // same round label, newer model: not a repeat
	}}
	c := &countingClient{}
	var progress strings.Builder
	if err := runClient(Config{}, c, ct, ClientOptions{Progress: &progress}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(c.trained) != "[1 2 2]" {
		t.Fatalf("trained rounds %v, want [1 2 2]", c.trained)
	}
	if ct.resumes != 1 {
		t.Fatalf("%d resumes, want 1", ct.resumes)
	}
	var got []string
	for _, u := range ct.sent {
		got = append(got, fmt.Sprintf("r%d/v%d/%v", u.Round, u.BaseVersion, u.Primal[0]))
	}
	if want := "[r1/v0/1 r1/v0/1 r2/v1/2 r2/v2/3]"; fmt.Sprint(got) != want {
		t.Fatalf("uploads %v, want %s", got, want)
	}
	for _, line := range []string{"client 4: round 1 uploaded", "client 4: round 1 re-sent", "session resumed"} {
		if !strings.Contains(progress.String(), line) {
			t.Fatalf("progress lacks %q:\n%s", line, progress.String())
		}
	}
}

// TestClientLoopResumeIsBounded: only a dropped connection is resumed,
// only rpc.ErrResumeRetryable is retried, and whatever ends the loop is
// reported as the error that broke the connection.
func TestClientLoopResumeIsBounded(t *testing.T) {
	// A peer that is there and talking nonsense is not a dropped connection.
	protocol := errors.New("rpc: expected GlobalModel, got ChunkAck")
	ct := &scriptedTransport{script: []any{protocol}}
	if err := runClient(Config{}, &countingClient{}, ct, ClientOptions{}); !errors.Is(err, protocol) || ct.resumes != 0 {
		t.Fatalf("protocol error: err %v after %d resumes, want it returned unresumed", err, ct.resumes)
	}

	// A server that is restarting is retried until the splice lands.
	ct = &scriptedTransport{script: []any{io.EOF, model(1, 0)}, resume: func(attempt int) error {
		if attempt < 3 {
			return fmt.Errorf("%w: connection refused", rpc.ErrResumeRetryable)
		}
		return nil
	}}
	c := &countingClient{}
	if err := runClient(Config{}, c, ct, ClientOptions{}); err != nil || ct.resumes != 3 || len(c.trained) != 1 {
		t.Fatalf("restart: err %v, %d resumes, trained %v; want nil, 3, one round", err, ct.resumes, c.trained)
	}

	// A session that is over is not.
	ct = &scriptedTransport{script: []any{io.EOF}, resume: func(int) error { return errors.New("rpc: client closed") }}
	if err := runClient(Config{}, &countingClient{}, ct, ClientOptions{}); !errors.Is(err, io.EOF) || ct.resumes != 1 {
		t.Fatalf("closed session: err %v after %d resumes, want io.EOF after 1", err, ct.resumes)
	}

	// A transport that cannot resume reports the loss as before.
	var plain comm.ClientTransport = struct{ comm.ClientTransport }{&scriptedTransport{script: []any{io.EOF}}}
	if err := runClient(Config{}, &countingClient{}, plain, ClientOptions{}); !errors.Is(err, io.EOF) {
		t.Fatalf("non-resumable transport: err %v, want io.EOF", err)
	}
}
