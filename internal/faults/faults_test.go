package faults

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	mpicomm "repro/internal/comm/mpi"
	"repro/internal/wire"
)

func TestParseRoundTripsCanonicalSpecs(t *testing.T) {
	specs := []string{
		"crash:2@3",
		"crash:20%@3",
		"rejoin:1@2+3",
		"drop:0:0.3",
		"drop:50%:0.25",
		"delay:4:10",
		"delay:4:10:5",
		"reorder",
		"reorder:0.5",
		"killserver:@3",
		"killserver:@3+2",
		"crash:20%@3,drop:0:0.3,delay:1:10:5,rejoin:2@2+3,reorder",
		"killserver:@2+1,killserver:@5",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if got := p.String(); got != spec {
			t.Fatalf("%q round-tripped to %q", spec, got)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if !p.Equal(p2) {
			t.Fatalf("%q: re-parsed plan differs", spec)
		}
	}
}

func TestParseRejectsAdversarialSpecs(t *testing.T) {
	bad := []string{
		"crash", "crash:", "crash:x@3", "crash:1@0", "crash:1@-2", "crash:-1@3",
		"crash:101%@3", "crash:0%@1", "crash:NaN%@1",
		"rejoin:1@2", "rejoin:1@2+0", "rejoin:1@2+x",
		"drop:1", "drop:1:0", "drop:1:1.5", "drop:1:NaN",
		"delay:1", "delay:1:-5", "delay:1:1:2:3", "delay:1:Inf",
		"reorder:2", "reorder:0",
		"killserver", "killserver:", "killserver:@", "killserver:@0",
		"killserver:@-1", "killserver:@2+", "killserver:@2+0", "killserver:@x",
		"killserver:3", "killserver:@2+1+1",
		"unknown:1", ",", "crash:1@3,,drop:1:0.5", "crash:1@1e99",
	}
	for _, spec := range bad {
		p, err := Parse(spec)
		if err == nil {
			t.Fatalf("%q accepted as %+v", spec, p)
		}
		if !errors.Is(err, ErrPlan) {
			t.Fatalf("%q: error %v does not wrap ErrPlan", spec, err)
		}
	}
}

func TestParseEmptyIsFaultFree(t *testing.T) {
	p, err := Parse("  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 0 || p.String() != "" {
		t.Fatalf("empty spec parsed to %+v", p)
	}
	inj, err := NewInjector(p, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Quiet() {
		t.Fatal("fault-free injector reports faults")
	}
}

func TestPercentageSelectionDeterministicInSeed(t *testing.T) {
	p, err := Parse("crash:25%@2")
	if err != nil {
		t.Fatal(err)
	}
	a := MustInjector(p, 20, 7).Crashes()
	b := MustInjector(p, 20, 7).Crashes()
	c := MustInjector(p, 20, 8).Crashes()
	if len(a) != 5 { // ceil(0.25*20)
		t.Fatalf("25%% of 20 selected %d clients", len(a))
	}
	for id, r := range a {
		if b[id] != r {
			t.Fatalf("same seed picked different clients: %v vs %v", a, b)
		}
	}
	same := true
	for id := range a {
		if _, ok := c[id]; !ok {
			same = false
		}
	}
	if same {
		t.Logf("note: seeds 7 and 8 picked the same 5 of 20 clients (possible but unlikely)")
	}
}

func TestInjectorRejectsOutOfRangeClient(t *testing.T) {
	p, err := Parse("crash:9@2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInjector(p, 4, 1); err == nil {
		t.Fatal("client 9 of 4 accepted")
	}
	if _, err := NewInjector(&Plan{}, 0, 1); err == nil {
		t.Fatal("zero-client injector accepted")
	}
}

func TestEarliestCrashWinsOnConflict(t *testing.T) {
	p, err := Parse("crash:0@5,rejoin:0@2+3,crash:0@7")
	if err != nil {
		t.Fatal(err)
	}
	inj := MustInjector(p, 2, 1)
	if inj.crashAt[0] != 2 || inj.rejoinAt[0] != 5 {
		t.Fatalf("conflict resolution crashAt=%d rejoinAt=%d, want the round-2 rejoin", inj.crashAt[0], inj.rejoinAt[0])
	}
}

// TestCrashWrapperSwallowsRoundsAfterTrigger drives the client wrapper
// over a real transport: after the crash round it must drain silently and
// still exit on Final.
func TestCrashWrapperSwallowsRoundsAfterTrigger(t *testing.T) {
	p, err := Parse("crash:0@2")
	if err != nil {
		t.Fatal(err)
	}
	inj := MustInjector(p, 1, 3)
	srv, raw := mpicomm.NewFLWorld(1)
	ct := inj.WrapClient(0, raw[0])

	var wg sync.WaitGroup
	wg.Add(1)
	seen := make(chan uint32, 8)
	go func() {
		defer wg.Done()
		for {
			gm, err := ct.RecvGlobal()
			if err != nil || gm.Final {
				return
			}
			seen <- gm.Round
			ct.SendUpdate(&wire.LocalUpdate{ClientID: 0, Round: gm.Round, NumSamples: 1, Primal: []float64{1}})
		}
	}()

	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.GatherFrom([]int{0}); err != nil {
		t.Fatal(err)
	}
	// Round 2 triggers the crash: the wrapper swallows it and every later
	// model; the server times out.
	for round := 2; round <= 4; round++ {
		if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: uint32(round), Weights: []float64{1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.GatherUntil(1, 50*time.Millisecond); err == nil {
			t.Fatalf("round %d: crashed client replied", round)
		}
		srv.Forgive([]int{0})
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(seen)
	var rounds []uint32
	for r := range seen {
		rounds = append(rounds, r)
	}
	if len(rounds) != 1 || rounds[0] != 1 {
		t.Fatalf("client loop saw rounds %v, want only round 1", rounds)
	}
}

// TestRejoinWrapperGoodbyesAndReturns: the disconnect flavor answers its
// trigger round with a goodbye leasing the rejoin round, swallows the
// leased-out span, and returns the first model at or past the lease.
func TestRejoinWrapperGoodbyesAndReturns(t *testing.T) {
	p, err := Parse("rejoin:0@2+2")
	if err != nil {
		t.Fatal(err)
	}
	inj := MustInjector(p, 1, 3)
	srv, raw := mpicomm.NewFLWorld(1)
	ct := inj.WrapClient(0, raw[0])

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			gm, err := ct.RecvGlobal()
			if err != nil || gm.Final {
				return
			}
			ct.SendUpdate(&wire.LocalUpdate{ClientID: 0, Round: gm.Round, NumSamples: 1, Primal: []float64{1}})
		}
	}()

	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.GatherFrom([]int{0}); err != nil {
		t.Fatal(err)
	}
	// Round 2: the obligation is answered by the goodbye itself — no
	// timeout needed.
	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 2, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got, err := srv.GatherFrom([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Control != wire.ControlGoodbye || got[0].RejoinRound != 4 {
		t.Fatalf("expected goodbye leasing round 4, got %+v", got[0])
	}
	// Round 4: the lease has expired; the client answers with data again.
	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 4, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got, err = srv.GatherFrom([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Control != wire.ControlNone || got[0].Round != 4 {
		t.Fatalf("post-rejoin reply %+v, want a round-4 data update", got[0])
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestDropAndDelayDeterministicPerSeed: the per-client fault streams must
// replay identically across injector reuses.
func TestDropAndDelayDeterministicPerSeed(t *testing.T) {
	p, err := Parse("drop:0:0.5")
	if err != nil {
		t.Fatal(err)
	}
	decisions := func() []bool {
		inj := MustInjector(p, 1, 11)
		ct := inj.WrapClient(0, nopClient{}).(*clientTransport)
		out := make([]bool, 32)
		for i := range out {
			out[i] = ct.r.Float64() < ct.dropP
		}
		return out
	}
	a, b := decisions(), decisions()
	anyDrop, anyKeep := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop decision %d differs across identical injectors", i)
		}
		anyDrop = anyDrop || a[i]
		anyKeep = anyKeep || !a[i]
	}
	if !anyDrop || !anyKeep {
		t.Fatalf("drop:0.5 produced a degenerate stream (drop=%v keep=%v)", anyDrop, anyKeep)
	}
}

// TestReorderWrapperPermutesDeterministically: the server wrapper's
// permutation must be seed-stable.
func TestReorderWrapperPermutesDeterministically(t *testing.T) {
	p, err := Parse("reorder")
	if err != nil {
		t.Fatal(err)
	}
	permute := func() []uint32 {
		inj := MustInjector(p, 4, 5)
		st := inj.WrapServer(nopServer{}).(*serverTransport)
		batch := []*wire.LocalUpdate{{ClientID: 0}, {ClientID: 1}, {ClientID: 2}, {ClientID: 3}}
		st.maybeReorder(batch)
		out := make([]uint32, len(batch))
		for i, u := range batch {
			out[i] = u.ClientID
		}
		return out
	}
	a, b := permute(), permute()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reorder permutation differs across identical injectors: %v vs %v", a, b)
		}
	}
	identity := true
	for i, id := range a {
		if int(id) != i {
			identity = false
		}
	}
	if identity {
		t.Logf("note: seeded permutation happened to be the identity")
	}
}

// nopClient/nopServer are inert transports for wrapper-internals tests.
type nopClient struct{}

func (nopClient) RecvGlobal() (*wire.GlobalModel, error) { return &wire.GlobalModel{Final: true}, nil }
func (nopClient) ReceiveInto([]float64)                  {}
func (nopClient) SendUpdate(*wire.LocalUpdate) error     { return nil }
func (nopClient) Stats() comm.Snapshot                   { return comm.Snapshot{} }
func (nopClient) Close() error                           { return nil }

type nopServer struct{}

func (nopServer) Broadcast(*wire.GlobalModel) error             { return nil }
func (nopServer) SendTo([]int, *wire.GlobalModel) error         { return nil }
func (nopServer) GatherFrom([]int) ([]*wire.LocalUpdate, error) { return nil, nil }
func (nopServer) GatherAny(int) ([]*wire.LocalUpdate, error)    { return nil, nil }
func (nopServer) GatherUntil(int, time.Duration) ([]*wire.LocalUpdate, error) {
	return nil, nil
}
func (nopServer) Forgive([]int)        {}
func (nopServer) Outstanding() []int   { return nil }
func (nopServer) Stats() comm.Snapshot { return comm.Snapshot{} }
func (nopServer) Close() error         { return nil }

// TestServerKillsSortedAndDetachedFromClients pins the killserver verb's
// injector surface: kills come back round-sorted regardless of spec
// order, carry their downtime, and touch no client wrapper.
func TestServerKillsSortedAndDetachedFromClients(t *testing.T) {
	p, err := Parse("killserver:@7,killserver:@2+3,crash:1@4")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(p, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	kills := inj.ServerKills()
	if len(kills) != 2 || kills[0].Round != 2 || kills[0].Gap != 3 || kills[1].Round != 7 || kills[1].Gap != 0 {
		t.Fatalf("server kills %+v", kills)
	}
	// The returned slice is a copy: mutating it must not corrupt the plan.
	kills[0].Round = 99
	if again := inj.ServerKills(); again[0].Round != 2 {
		t.Fatalf("ServerKills leaked internal state: %+v", again)
	}
	if crashes := inj.Crashes(); len(crashes) != 1 || crashes[1] != 4 {
		t.Fatalf("client crash schedule disturbed: %+v", crashes)
	}
}
