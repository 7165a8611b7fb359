package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/comm"
	mpicomm "repro/internal/comm/mpi"
	"repro/internal/comm/pubsub"
	"repro/internal/comm/rpc"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Transport selects the communication backend of a simulated run.
type Transport string

// Supported transports.
const (
	TransportMPI    Transport = "mpi"    // in-process ranks (RDMA stand-in)
	TransportPubSub Transport = "pubsub" // topic broker (MQTT stand-in)
	TransportRPC    Transport = "rpc"    // loopback TCP RPC (gRPC stand-in)
)

// RoundStats records one communication round of a run. Under the buffered
// scheduler a "round" is one buffer release (K arrivals aggregated).
type RoundStats struct {
	Round      int
	TestLoss   float64
	TestAcc    float64
	ComputeSec float64 // slowest client's local update time (wall clock)
	WallSec    float64 // end-to-end round time at the server
	CohortSize int     // clients scheduled (barrier) or aggregated (buffered)
}

// Result aggregates a full run.
type Result struct {
	Config     Config
	Rounds     []RoundStats
	FinalAcc   float64
	FinalLoss  float64
	Server     comm.Snapshot // server-side traffic totals
	UploadsB   uint64        // client→server bytes (sum over clients)
	DownloadsB uint64        // server→client bytes
	ModelDim   int
	// Stale counts buffered updates that were folded with staleness > 0;
	// Dropped counts those discarded for exceeding MaxStaleness.
	Stale, Dropped int
	// Crashed counts the clients presumed dead when the run ended:
	// permanent goodbyes plus clients whose last scheduled round timed out
	// unresolved. Rejoined counts departures that came back (goodbye with a
	// rejoin lease, honored). TimedOut counts timed-out update obligations
	// over the whole run — how often the server gave up waiting.
	Crashed, Rejoined, TimedOut int
	// Soak accounts the crash-and-recover history of a journaled run
	// (RunOptions.Journal); nil otherwise.
	Soak *SoakStats
}

// RunOptions tunes the runner.
type RunOptions struct {
	Transport     Transport
	ValidateEvery int       // validate every k rounds (0 = every round)
	Progress      io.Writer // optional per-round progress lines
	MaxParallel   int       // cap on concurrently training clients (0 = NumCPU)
	// ClientDelay, when non-nil, injects a per-update artificial delay for
	// the given client before its upload — the straggler model used by the
	// scheduler benchmarks (a slow device or link, without burning CPU).
	ClientDelay func(client, round int) time.Duration
	// Faults, when non-nil, wraps every transport endpoint with the
	// deterministic fault-injection layer so the run executes the
	// injector's scripted plan (crashes, drops, delays, rejoins, reorder).
	// Pair it with Config.RoundTimeout, or a crashed client hangs a
	// barrier round exactly as an unprotected deployment would.
	Faults *faults.Injector

	// Journal, when non-nil, makes the run durable: every recovery-relevant
	// transition (round start, admitted update, roster mutation, commit) is
	// journaled before it takes effect, and a run started over a non-empty
	// journal resumes exactly where the crashed one died — completing its
	// in-flight round from the journaled admits — instead of starting over.
	// FedAvg-family flat-accumulator configurations only; see
	// ValidateJournalConfig.
	Journal *journal.Journal
	// CheckpointEvery compacts the journal into a checkpoint every k
	// commits (0 = never; the WAL then grows for the whole run).
	CheckpointEvery int
	// Kills schedules in-process server deaths (kill -9 semantics: the
	// scheduler/aggregator/membership state is discarded mid-round with no
	// cleanup and rebuilt from the journal; the transports survive, playing
	// the role of the listening socket plus session resumption). Scripted
	// killserver events from Faults are appended to this schedule with the
	// kill window cycled per event. Requires Journal.
	Kills []ServerKill
	// Gate, when non-nil, throttles when each admitted batch's server-side
	// decode+fold may start — the hook a multi-tenant host uses to share
	// the process-wide aggregation workers fairly across tenants. Timing
	// only: a gated run's trajectory is bit-identical to the ungated run.
	Gate AdmissionGate
}

// newServerTransport builds the server and client transports for a run.
func newServerTransport(tr Transport, P, dim, rounds int) (comm.ServerTransport, []comm.ClientTransport, error) {
	switch tr {
	case TransportPubSub:
		s, cs, err := pubsub.NewFLBroker(P)
		if err != nil {
			return nil, nil, err
		}
		cts := make([]comm.ClientTransport, P)
		for i := range cs {
			cts[i] = cs[i]
		}
		return s, cts, nil
	case TransportRPC:
		srv, err := rpc.Listen("127.0.0.1:0", rpc.ServerConfig{
			NumClients: P,
			Rounds:     rounds,
			ModelSize:  dim,
		})
		if err != nil {
			return nil, nil, err
		}
		acceptErr := make(chan error, 1)
		go func() { acceptErr <- srv.Accept() }()
		cts := make([]comm.ClientTransport, P)
		dialErrs := make([]error, P)
		var dialWG sync.WaitGroup
		for i := 0; i < P; i++ {
			dialWG.Add(1)
			go func(i int) {
				defer dialWG.Done()
				c, err := rpc.Dial(srv.Addr(), uint32(i), fmt.Sprintf("sim-client-%d", i))
				if err != nil {
					dialErrs[i] = err
					return
				}
				cts[i] = c
			}(i)
		}
		dialWG.Wait()
		for i, err := range dialErrs {
			if err != nil {
				srv.Close()
				return nil, nil, fmt.Errorf("core: dialing client %d: %w", i, err)
			}
		}
		if err := <-acceptErr; err != nil {
			srv.Close()
			return nil, nil, fmt.Errorf("core: accepting clients: %w", err)
		}
		return srv, cts, nil
	case TransportMPI, "":
		s, cs := mpicomm.NewFLWorld(P)
		cts := make([]comm.ClientTransport, P)
		for i := range cs {
			cts[i] = cs[i]
		}
		return s, cts, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown transport %q", tr)
	}
}

// Run executes a federated simulation of cfg over fed using model replicas
// from factory, and returns per-round statistics. All clients run as
// goroutines against a real transport backend, exactly as APPFL's MPI
// simulation runs one process per client. The round structure is decided
// by the configured Scheduler (which clients participate, when a batch is
// released) and the model update by the matching Aggregator.
func Run(cfg Config, fed *dataset.Federated, factory nn.Factory, opts RunOptions) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	P := fed.NumClients()
	if P == 0 {
		return nil, fmt.Errorf("core: no clients in federated dataset")
	}
	// The replica that sizes the transport goes on to hold the server's model.
	refModel := sequentialOf(factory())
	st, cts, err := newServerTransport(opts.Transport, P, nn.NumParams(refModel), cfg.Rounds)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return runWithTransport(cfg, fed, factory, refModel, opts, st, cts)
}

// RunWithTransport is Run over caller-supplied transports: st serves the
// run's server side and cts[i] client i. It is Serve plus one RunClient
// loop per client, in one process. The caller keeps ownership of st (it is
// NOT closed here — a multi-tenant host passes per-tenant views of one
// shared server and closes that server itself); client transports are
// closed as their goroutines exit, or all at once when the server half
// fails. opts.Transport is ignored.
func RunWithTransport(cfg Config, fed *dataset.Federated, factory nn.Factory, opts RunOptions,
	st comm.ServerTransport, cts []comm.ClientTransport) (*Result, error) {
	return runWithTransport(cfg, fed, factory, nil, opts, st, cts)
}

// runWithTransport is RunWithTransport with the reference replica — a
// fresh model from factory — supplied by the caller, or built here when
// refModel is nil.
func runWithTransport(cfg Config, fed *dataset.Federated, factory nn.Factory, refModel *nn.Sequential, opts RunOptions,
	st comm.ServerTransport, cts []comm.ClientTransport) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	P := fed.NumClients()
	if P == 0 {
		return nil, fmt.Errorf("core: no clients in federated dataset")
	}
	if len(cts) != P {
		return nil, fmt.Errorf("core: %d client transports for %d clients", len(cts), P)
	}

	// Shared initial model: the reference replica's vector is w0 for
	// everyone. An ICEADMM client loads it into a replica of its own, FedAvg
	// and IIADMM clients train from the first model they receive; the
	// server's aggregator holds the vector itself (see serve).
	if refModel == nil {
		refModel = sequentialOf(factory())
	}
	w0 := nn.ParamVector(refModel)

	// Clients: own replica, own RNG stream, own update pipeline.
	master := rng.New(cfg.Seed)
	clients := make([]ClientAlgorithm, P)
	for i := range clients {
		c, err := newRunClient(cfg, i, master.Split(), factory(), w0, fed.Clients[i])
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}

	// Client loop goroutines. A semaphore bounds concurrent training to the
	// machine's parallelism so 203-client runs don't thrash.
	maxPar := opts.MaxParallel
	if maxPar <= 0 {
		maxPar = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, maxPar)
	var wg sync.WaitGroup
	clientErrs := make([]error, P)
	live := make([]comm.ClientTransport, P)
	for i := range clients {
		// The fault layer wraps both ends of every link (Serve wraps the
		// server's); the unwrapped path is untouched without an injector.
		live[i] = cts[i]
		if opts.Faults != nil {
			live[i] = opts.Faults.WrapClient(i, cts[i])
		}
		copts := ClientOptions{sem: sem}
		if opts.ClientDelay != nil {
			copts.Delay = func(round int) time.Duration { return opts.ClientDelay(i, round) }
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer live[i].Close()
			clientErrs[i] = runClient(cfg, clients[i], live[i], copts)
		}(i)
	}

	res, _, err := serve(cfg, fed, factory, refModel, opts, st, false)
	if err != nil {
		// Nobody will send these clients a Final: end their sessions so the
		// loops exit instead of waiting on (or redialing) a dead run.
		for _, ct := range live {
			ct.Close()
		}
		return nil, err
	}
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			return nil, fmt.Errorf("core: client %d: %w", i, err)
		}
	}
	return res, nil
}

// Serve runs the server half of a federation — scheduler, aggregator,
// membership, journal and recovery, stream session, admission gate — over
// st, a transport whose P = fed.NumClients() clients have already joined,
// and returns the run's Result plus a copy of the final global weights.
// The clients are whoever sits at the other end of st running RunClient:
// goroutines (RunWithTransport) or separate processes (appfl-server ↔
// appfl-client); the trajectory is the same. fed supplies the roster size
// and the validation set only; st stays the caller's to close.
func Serve(cfg Config, fed *dataset.Federated, factory nn.Factory, opts RunOptions,
	st comm.ServerTransport) (*Result, []float64, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if fed.NumClients() == 0 {
		return nil, nil, fmt.Errorf("core: no clients in federated dataset")
	}
	return serve(cfg, fed, factory, sequentialOf(factory()), opts, st, true)
}

// serve is Serve over a validated cfg and refModel, a fresh replica from
// factory, which serve owns from here on. Each incarnation's aggregator
// holds its replica's parameter vector as the global model, so the
// replica evaluates that model with no copy; a scripted kill discards
// both, and the next incarnation builds a fresh replica from factory, as
// a restarted process does, before the journal restores the model.
func serve(cfg Config, fed *dataset.Federated, factory nn.Factory, refModel *nn.Sequential, opts RunOptions,
	st comm.ServerTransport, wantWeights bool) (*Result, []float64, error) {
	P := fed.NumClients()
	sched, err := NewScheduler(cfg, P)
	if err != nil {
		return nil, nil, err
	}
	if opts.Faults != nil {
		st = opts.Faults.WrapServer(st)
	}

	// The server's inverse-only pipeline undoes the compression stages of
	// every received payload before a batch reaches the Aggregator.
	serverPipe, err := NewServerPipeline(cfg)
	if err != nil {
		return nil, nil, err
	}

	res := &Result{Config: cfg, ModelDim: nn.NumParams(refModel)}
	var jw *journalWriter
	var recd *journal.Recovered // the journal state the next incarnation resumes from
	if opts.Journal != nil {
		if err := ValidateJournalConfig(cfg); err != nil {
			return nil, nil, err
		}
		kills := append([]ServerKill(nil), opts.Kills...)
		if opts.Faults != nil {
			// Scripted killserver events cycle through the kill windows so a
			// soak plan exercises every recovery path.
			for i, k := range opts.Faults.ServerKills() {
				kills = append(kills, ServerKill{Round: k.Round, Window: KillWindow(i % int(numKillWindows)), Gap: k.Gap})
			}
		}
		jw = newJournalWriter(opts.Journal, opts.CheckpointEvery, kills)
		res.Soak = &SoakStats{}
		recd = opts.Journal.Recovered()
	} else if len(opts.Kills) > 0 {
		return nil, nil, fmt.Errorf("core: RunOptions.Kills requires a Journal (an unjournaled kill is just a lost run)")
	}
	var s *server
	var runErr error
	var recoveryStart time.Time
	for {
		agg, err := NewAggregator(cfg, nn.ParamVector(refModel), P)
		if err != nil {
			return nil, nil, err
		}
		mem := newMembership(P)
		var resume *RecoveredServer
		if jw != nil {
			// The journal decides where this incarnation starts: the state the
			// journal held when Run opened it (a cold start, which is a
			// recovery only if that journal was not empty), or what survived
			// the last kill.
			if resume, err = RecoverServer(recd, P, sched.Barrier()); err != nil {
				return nil, nil, err
			}
			if err := resume.Apply(agg); err != nil {
				return nil, nil, err
			}
			mem = resume.mem
			mem.onLedger = jw.ledger
			killed := res.Soak.Kills > 0
			if killed || !resume.Fresh {
				res.Soak.Recoveries++
				res.Soak.ReplayedRecords += resume.Replayed
			}
			if killed {
				res.Soak.RecoverySec = append(res.Soak.RecoverySec, time.Since(recoveryStart).Seconds())
			} else if !resume.Fresh && opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "journal replayed %d records; resuming at round %d\n", resume.Replayed, resume.NextRound)
			}
		}
		s = newServer(cfg, sched, agg, mem, serverPipe, st, refModel, fed, res, jw, opts)
		runErr = s.run(resume)
		if !errors.Is(runErr, errServerKilled) {
			break
		}
		// The scripted kill -9: everything the incarnation held is discarded
		// with no flush or goodbye, the replica, aggregator and membership
		// are rebuilt from scratch, and the journal decides where to resume.
		// Recover first joins a checkpoint the last commit left running: the
		// simulated crash lands after it, where a real one might land before
		// its rename, and either leaves a checkpoint replay accepts.
		res.Soak.Kills++
		if jw.gap > 0 {
			time.Sleep(time.Duration(jw.gap) * 5 * time.Millisecond)
		}
		recoveryStart = time.Now()
		if recd, err = opts.Journal.Recover(); err != nil {
			return nil, nil, fmt.Errorf("core: recovering journal after kill %d: %w", res.Soak.Kills, err)
		}
		refModel = sequentialOf(factory())
	}
	if err := jw.finish(); err != nil && runErr == nil {
		runErr = fmt.Errorf("core: last checkpoint: %w", err)
	}
	res.Rejoined = s.mem.rejoined
	res.TimedOut = s.mem.timedOut
	res.Crashed = s.mem.presumedDead()
	if runErr != nil {
		return nil, nil, runErr
	}

	// Shut the clients down.
	if err := st.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		return nil, nil, fmt.Errorf("core: final broadcast: %w", err)
	}
	snap := st.Stats()
	res.Server = snap
	res.UploadsB = snap.BytesRecv
	res.DownloadsB = snap.BytesSent
	if n := len(res.Rounds); n > 0 {
		res.FinalAcc = res.Rounds[n-1].TestAcc
		res.FinalLoss = res.Rounds[n-1].TestLoss
	}
	var final []float64
	if wantWeights {
		final = s.agg.Weights()
	}
	return res, final, nil
}

// server is one incarnation of a federation's server half: the state a
// kill -9 discards (aggregator, membership, dispatcher) next to what
// outlives it (transport, journal writer, result). The round loops keep
// only what differs between them — who is dispatched, how a batch is
// gathered, the stream window, the buffered in-flight count — and hand
// every batch to release.
type server struct {
	cfg       Config
	sched     Scheduler
	agg       Aggregator
	buffered  *BufferedAggregator // agg, when it is the staleness-weighted one
	pipe      *pipeline.Pipeline
	fused     pipeline.FusedStage // non-nil: batches stay encoded for the fused fold
	st        comm.ServerTransport
	dispatch  *dispatcher
	evalModel nn.Module
	fed       *dataset.Federated
	res       *Result
	mem       *membership
	jw        *journalWriter
	gate      AdmissionGate
	minCohort int
	validate  int // evaluate every validate rounds
	progress  io.Writer
	// win, when non-nil, folds every round of this incarnation through a
	// StreamSession window as the uplinks arrive: the gathered updates
	// carry no primal.
	win *windowFold
}

func newServer(cfg Config, sched Scheduler, agg Aggregator, mem *membership, pipe *pipeline.Pipeline, st comm.ServerTransport,
	evalModel nn.Module, fed *dataset.Federated, res *Result, jw *journalWriter, opts RunOptions) *server {
	s := &server{
		cfg: cfg, sched: sched, agg: agg, pipe: pipe, st: st,
		dispatch:  newDispatcher(cfg, agg, st),
		evalModel: evalModel, fed: fed, res: res,
		mem: mem, jw: jw, gate: opts.Gate,
		minCohort: max(cfg.MinCohort, 1),
		validate:  max(opts.ValidateEvery, 1),
		progress:  opts.Progress,
	}
	s.buffered, _ = agg.(*BufferedAggregator)
	// Fast path of the kernel layer: fold still-encoded payloads when the
	// stack's inverse fuses — bit-identical to decoding first and folding
	// after. Journaled runs skip the fused fold: a compressed uplink is
	// never windowed, so its admit records are journaled from the dense
	// decoded primals, and the inverse must run as its own pass before
	// anything folds. A windowed journaled round has no inverse to fuse:
	// its admits are written window by window ahead of the fold.
	if jw == nil {
		s.fused, _ = EnableFusedFold(agg, pipe)
	}
	return s
}

// run drives this incarnation's rounds until the run ends, a scripted
// kill lands (errServerKilled) or a round fails. resume is nil for an
// unjournaled run.
func (s *server) run(resume *RecoveredServer) error {
	defer s.dispatch.release()
	if s.sched.Barrier() {
		return s.runBarrierRounds(resume)
	}
	return s.runBufferedReleases(resume)
}

// release is the one place a batch becomes the model, and so the one
// place journal-before-effect is enforced. In order: under the admission
// gate the gathered updates are decoded and admitted to the journal, the
// before-commit kill window passes, and the batch folds; then the round
// commits, the gathered updates go back to the transports, and the round
// is recorded. batch is what folds, in fold order; gathered is the part of
// it this incarnation gathered — all of it, except when a resumed round
// refolds journaled admits, which the journal already holds and owns.
// inflight is the open dispatch obligations the commit records.
func (s *server) release(round int, batch, gathered []*wire.LocalUpdate, inflight int, start time.Time) error {
	if err := s.fold(round, batch, gathered); err != nil {
		return err
	}
	if err := s.jw.commit(round, s.agg, s.mem, inflight); err != nil {
		return err
	}
	rs := RoundStats{Round: round, CohortSize: len(batch)}
	for _, u := range batch {
		// A replayed admit carries no ComputeSec and counts as 0.
		rs.ComputeSec = max(rs.ComputeSec, u.ComputeSec)
	}
	// Folded and committed: nothing reads the gathered updates again, so
	// their storage goes back to the transports for the next decode.
	comm.ReleaseUpdates(gathered)
	recordRound(s.res, rs, s.agg, s.evalModel, s.fed, s.cfg.Rounds, s.validate, start, s.progress)
	return nil
}

// fold is release's gated half. The admission gate spans decode through
// fold — the expensive part of a round's server-side work, and the part
// that contends for the shared aggregation workers on a multi-tenant
// host — on every round, resumed ones included. In a streamed or
// windowed incarnation the window fold already folded every round —
// a resumed one's replayed admits included — and advanced the version,
// and a journaled one landed its admits as it gathered, so the slim
// updates have nothing to decode, journal or fold.
func (s *server) fold(round int, batch, gathered []*wire.LocalUpdate) error {
	releaseGate := gateAcquire(s.gate, len(batch))
	defer releaseGate()
	if s.win == nil {
		var err error
		if s.fused != nil {
			err = DecodeUpdatesFused(gathered, s.fused, s.agg.Dim())
		} else {
			err = DecodeUpdates(gathered, s.pipe, s.agg.Dim(), 0) // GOMAXPROCS wide
		}
		if err != nil {
			return fmt.Errorf("core: decode round %d: %w", round, err)
		}
		s.jw.admitBatch(round, gathered)
	}
	if s.jw.shouldKill(KillBeforeCommit, round) {
		return errServerKilled
	}
	if s.win != nil || len(batch) == 0 {
		return nil
	}
	// The aggregator is the authority on what was actually folded vs
	// dropped; read its counters rather than re-deriving staleness here.
	prevStale, prevDropped := 0, 0
	if s.buffered != nil {
		prevStale, prevDropped = s.buffered.StaleApplied, s.buffered.Dropped
	}
	if err := s.agg.Aggregate(batch); err != nil {
		return fmt.Errorf("core: aggregate round %d: %w", round, err)
	}
	if s.buffered != nil {
		s.res.Stale += s.buffered.StaleApplied - prevStale
		s.res.Dropped += s.buffered.Dropped - prevDropped
	}
	return nil
}

// open dispatches the current model to ids as the given round, then
// journals the round start. A crash between the two leaves a dispatched
// round the journal never heard of, which the restarted server simply
// opens again — clients answer a repeated dispatch by re-sending the
// update they already trained.
func (s *server) open(ids []int, round int) error {
	version, err := s.dispatch.send(ids, round, len(ids))
	if err != nil {
		return err
	}
	s.jw.roundStart(round, ids, version)
	return nil
}

// recordRound finalizes one round's statistics, validating on cadence. The
// evaluation reads the aggregator's live model (GlobalWeights), which in a
// run is evalModel's own parameter vector, so EvaluateWeights copies
// nothing.
func recordRound(res *Result, rs RoundStats, agg Aggregator, evalModel nn.Module, fed *dataset.Federated,
	rounds, validateEvery int, start time.Time, progress io.Writer) {
	if fed.Test != nil && (rs.Round%validateEvery == 0 || rs.Round == rounds) {
		rs.TestLoss, rs.TestAcc = EvaluateWeights(evalModel, agg.GlobalWeights(), fed.Test, 256)
	}
	rs.WallSec = time.Since(start).Seconds()
	res.Rounds = append(res.Rounds, rs)
	if progress != nil {
		fmt.Fprintf(progress, "round %3d  cohort %3d  acc %.4f  loss %.4f  compute %.3fs  wall %.3fs\n",
			rs.Round, rs.CohortSize, rs.TestAcc, rs.TestLoss, rs.ComputeSec, rs.WallSec)
	}
}

// dispatcher sends the aggregator's current model to a set of clients: the
// one place a GlobalModel is built, shared by the barrier rounds, the
// buffered releases and the re-dispatch of a resumed round. Every
// transport serializes inside SendTo (rpc encodes and writes, mpi and
// pubsub encode), so the GlobalModel borrows the aggregator's live
// model (GlobalWeights) and one kept code buffer serves every f16 round.
type dispatcher struct {
	cfg    Config
	agg    Aggregator
	st     comm.ServerTransport
	rho    interface{ CurrentRho() float64 }
	f16buf []byte
}

func newDispatcher(cfg Config, agg Aggregator, st comm.ServerTransport) *dispatcher {
	d := &dispatcher{cfg: cfg, agg: agg, st: st}
	if cfg.AdaptiveRho {
		d.rho, _ = agg.(interface{ CurrentRho() float64 })
	}
	if cfg.DownlinkF16 {
		d.f16buf = tensor.GetBytes(2 * agg.Dim())
	}
	return d
}

// release returns the pooled downlink scratch.
func (d *dispatcher) release() {
	if d.cfg.DownlinkF16 {
		tensor.PutBytes(d.f16buf)
	}
}

// send delivers the current model to ids as the given round and returns
// the model version it carried. cohortSize is the size of the cohort the
// round opened with, which a re-dispatch to the rest of it keeps.
func (d *dispatcher) send(ids []int, round, cohortSize int) (uint64, error) {
	gm := &wire.GlobalModel{
		Round:      uint32(round),
		Version:    uint64(d.agg.Version()),
		CohortSize: uint32(cohortSize),
		Weights:    d.agg.GlobalWeights(),
	}
	if d.rho != nil {
		gm.Rho = d.rho.CurrentRho()
	}
	if d.cfg.DownlinkF16 {
		var err error
		if d.f16buf, err = EncodeDownlinkF16Into(gm, d.f16buf); err != nil {
			return 0, fmt.Errorf("core: downlink round %d: %w", round, err)
		}
	}
	if err := d.st.SendTo(ids, gm); err != nil {
		return 0, fmt.Errorf("core: send round %d: %w", round, err)
	}
	return gm.Version, nil
}

// gather collects the round's update from each listed client, in list
// order, with goodbyes split off into the roster. In a windowed journaled
// round the admits the window fold reserved land first, held to the slim
// updates, so that a goodbye's LedgerDepart record follows them.
func (s *server) gather(ids []int, round int) ([]*wire.LocalUpdate, error) {
	updates, err := gatherCohort(s.cfg, s.st, s.mem, ids, round)
	if err != nil {
		s.jw.abandonAdmits()
		return nil, err
	}
	if err := s.jw.commitAdmits(updates); err != nil {
		return nil, fmt.Errorf("core: journal round %d: %w", round, err)
	}
	return splitControl(updates, s.mem), nil
}

// gatherCohort collects the round's update from each listed client, in
// list order. Without a RoundTimeout it blocks for all of them; with one
// it takes whoever reports by the deadline, and the silent clients are
// forgiven and benched — the survivors carry the round.
func gatherCohort(cfg Config, st comm.ServerTransport, mem *membership, ids []int, round int) ([]*wire.LocalUpdate, error) {
	var updates []*wire.LocalUpdate
	var err error
	if cfg.RoundTimeout > 0 {
		got, gerr := st.GatherUntil(len(ids), cfg.RoundTimeout)
		if gerr != nil && !errors.Is(gerr, comm.ErrRoundTimeout) {
			return nil, fmt.Errorf("core: gather round %d: %w", round, gerr)
		}
		if gerr != nil {
			missing := comm.Missing(ids, got)
			st.Forgive(missing)
			for _, c := range missing {
				mem.strike(c, round)
			}
		}
		updates, err = comm.OrderSubset(ids, got)
	} else {
		updates, err = st.GatherFrom(ids)
	}
	if err != nil {
		return nil, fmt.Errorf("core: gather round %d: %w", round, err)
	}
	return updates, nil
}

// uploadWindow is the width, in coordinates, of the windows a windowed
// round folds (see windowedUploads).
const uploadWindow = 16384

// windowedUploads switches the transport into windowed mode when the run
// has the shape a StreamSession serves and nothing needs a gathered
// update's primal: FedAvg rounds at a barrier with no RoundTimeout (the
// stream gather has no forgive path), no subset (its uploads span a
// prefix, not the model) or compressed uplink (its payloads are not dense
// windows), no admission gate (it spans the decode and fold of a gathered
// batch) and a transport that offers the mode — every transport's own
// server does; a wrapper that does not forward it keeps the Aggregate
// path. Each client still sends its update whole; the server folds it
// uploadWindow coordinates at a time as it is decoded, and holds no
// decoded upload. A journaled run windows too: each window is written
// into its client's admit record before it folds (see windowFold).
func (s *server) windowedUploads() (comm.UploadWindower, bool) {
	if s.cfg.Algorithm != AlgoFedAvg || s.cfg.RoundTimeout > 0 ||
		s.cfg.SubsetFrac > 0 || s.pipe.Compresses() || s.gate != nil {
		return nil, false
	}
	w, ok := s.st.(comm.UploadWindower)
	if ok {
		w.WindowUploads(uploadWindow, s.agg.Dim())
	}
	return w, ok
}

// runBarrierRounds drives the classic synchronous structure: each round
// the scheduler picks a cohort, the server sends the model to exactly that
// cohort, blocks until the whole cohort reports, and aggregates.
//
// With a RoundTimeout the round is fault-tolerant: the gather gives up at
// the deadline, the round completes with whoever reported (quorum
// permitting — FedAvg renormalizes the sample weights over the survivors),
// the silent clients are forgiven and benched with backoff, and goodbye
// announcements are honored by excluding the client until its rejoin
// lease expires.
func (s *server) runBarrierRounds(resume *RecoveredServer) (err error) {
	// Streaming mode: chunked uplinks fold through a StreamSession window
	// instead of a gathered batch; the transport must speak the chunk
	// protocol. Config.Validate has already pinned the compatible shape
	// (FedAvg, barrier scheduler, no RoundTimeout). Windowed mode folds
	// monolithic uploads through the same window, cut by the transport's
	// inbox.
	var src comm.ChunkGatherer
	chunk := s.cfg.StreamChunk
	if chunk > 0 {
		cg, ok := s.st.(comm.ChunkGatherer)
		if !ok {
			return fmt.Errorf("core: transport %T cannot gather streamed chunks", s.st)
		}
		src = cg
	} else if w, ok := s.windowedUploads(); ok {
		// A scripted kill leaves the mode on: uploads that arrive before
		// the next incarnation gathers them are cut into windows all the
		// same, as that incarnation expects.
		defer func() {
			if !errors.Is(err, errServerKilled) {
				w.WindowUploads(0, 0)
			}
		}()
		src, chunk = w, uploadWindow
	}
	if src != nil {
		ss, err := NewStreamSession(s.agg)
		if err != nil {
			return err
		}
		s.win = &windowFold{src: src, width: chunk, acks: s.cfg.StreamChunk > 0, ss: ss}
	}
	start := 1
	var pending *PendingRound
	if resume != nil {
		start, pending = resume.NextRound, resume.Pending
		if pending != nil {
			start = pending.Round
		}
	}
	for t := start; t <= s.cfg.Rounds; t++ {
		roundStart := time.Now()
		var batch, gathered []*wire.LocalUpdate
		var cohort int
		var err error
		if pending != nil {
			// The crashed process died with this round in flight: finish it
			// from the journaled admits plus a re-gather of whatever the
			// journal missed, before any new round is scheduled.
			batch, gathered, err = s.regather(pending)
			cohort, pending = len(pending.Cohort), nil
		} else {
			if s.jw.shouldKill(KillBetweenRounds, t) {
				return errServerKilled
			}
			ids := s.mem.filter(s.sched.Cohort(t), t)
			if s.cfg.RoundTimeout > 0 {
				ids = dropUnreachable(s.st, s.mem, ids, t)
			}
			if len(ids) < s.minCohort {
				return fmt.Errorf("core: round %d cohort has %d schedulable clients, quorum is %d: %w",
					t, len(ids), s.minCohort, ErrQuorum)
			}
			if err := s.open(ids, t); err != nil {
				return err
			}
			if s.jw.shouldKill(KillAfterDispatch, t) {
				return errServerKilled
			}
			if s.win != nil {
				// The cohort's vectors arrive window by window into the
				// session's O(chunk) window; the slim updates gathered below
				// settle the obligations but carry no payload.
				if err := s.win.fold(s, t, ids, nil, ids); err != nil {
					return err
				}
			}
			gathered, err = s.gather(ids, t)
			batch, cohort = gathered, len(ids)
		}
		if err != nil {
			return err
		}
		if len(batch) < s.minCohort {
			return fmt.Errorf("core: round %d completed with %d of %d clients, quorum is %d: %w",
				t, len(batch), cohort, s.minCohort, ErrQuorum)
		}
		if err = s.release(t, batch, gathered, 0, roundStart); err != nil {
			return err
		}
	}
	return nil
}

// windowFold is a barrier incarnation's window fold: the session that
// folds, where the windows come from, and the scratch that merges a
// resumed round's replayed admits into them.
type windowFold struct {
	src   comm.ChunkGatherer
	width int  // coordinates a window
	acks  bool // the clients streamed (Config.StreamChunk) and wait for an ack
	ss    *StreamSession

	// Per fold position: the sample count, a replayed admit's window view
	// and the window's payloads as the session folds them.
	samples  []uint64
	views    []wire.Payload
	payloads []*wire.Payload
}

// fold folds round's uploads window by window: order is the fold order,
// the clients of gather — order less the replayed admits — upload through
// the window source, and replayed[k], when replayed is non-nil, is a
// journaled admit that takes fold position k in place of an upload. The
// replayed primals are folded as dense window views beside the gathered
// windows, so a resumed round folds in the order the uncrashed one would
// have. In a journaled round each window of the gathered clients is
// written into their reserved admit records before it folds; gather lands
// the records.
func (f *windowFold) fold(s *server, round int, order []int, replayed []*wire.LocalUpdate, gather []int) error {
	n, dim := len(order), s.agg.Dim()
	if n == 0 {
		return nil
	}
	replay := func(k int) *wire.LocalUpdate {
		if replayed == nil {
			return nil
		}
		return replayed[k]
	}
	for k := range order {
		if u := replay(k); u != nil && len(u.Primal) != dim {
			return fmt.Errorf("core: round %d: client %d's journaled primal has %d values, the model %d",
				round, u.ClientID, len(u.Primal), dim)
		}
	}
	f.samples = slices.Grow(f.samples[:0], n)[:n]
	f.views = slices.Grow(f.views[:0], n)[:n]
	f.payloads = slices.Grow(f.payloads[:0], n)[:n]
	version := uint64(s.agg.Version()) // the version the round dispatched: the fold bumps it at Finish
	var gathered []uint64
	begin := func(samples []uint64) error {
		gathered = samples
		for k, g := 0, 0; k < n; k++ {
			if u := replay(k); u != nil {
				f.samples[k] = u.NumSamples
			} else {
				f.samples[k], g = samples[g], g+1
			}
		}
		return f.ss.Begin(f.samples)
	}
	fold := func(lo, hi int, payloads []*wire.Payload) error {
		if lo == 0 {
			if err := s.jw.reserveAdmits(round, gather, gathered, payloads, version, dim); err != nil {
				return err
			}
		}
		if err := s.jw.fillAdmits(lo, payloads); err != nil {
			return err
		}
		for k, g := 0, 0; k < n; k++ {
			if u := replay(k); u != nil {
				f.views[k] = wire.Payload{Enc: wire.EncDense, Dim: uint32(hi - lo), Dense: u.Primal[lo:hi]}
				f.payloads[k] = &f.views[k]
			} else {
				f.payloads[k], g = payloads[g], g+1
			}
		}
		return f.ss.FoldPayloads(lo, hi, f.payloads)
	}
	_, err := comm.StreamGather(f.src, gather, uint32(round), dim, f.width, begin, fold)
	clear(f.views) // they must not keep the replayed primals
	clear(f.payloads)
	if err == nil && f.acks {
		err = comm.AckStream(f.src, gather, uint32(round), dim, f.width)
	}
	if err == nil {
		err = f.ss.Finish()
	}
	if err != nil {
		s.jw.abandonAdmits()
		return fmt.Errorf("core: stream round %d: %w", round, err)
	}
	return nil
}

// regather collects the round a crashed server left in flight: the
// journaled admits are taken as-is (their primals were written before the
// crash), the rest of the cohort is gathered again, and the merged batch
// comes back in cohort order — the order the uncrashed gather would have
// produced — so the refold is bit-identical to the fold the crash
// interrupted. Whom the re-gather has to ask again is read off the
// transport: a member whose obligation is still open (the transport
// outlived the server state, as in the in-process kill tests) will answer
// the original dispatch; one with none (a restarted process starts with an
// empty ledger) gets the round's model again and answers by re-sending the
// update it already trained, or by training if the model never reached it.
// A windowed incarnation folds the round here, through the window fold:
// the replayed admits as window views, the re-gathered clients' uploads as
// they are cut — journaled, like any windowed round's.
func (s *server) regather(p *PendingRound) (batch, gathered []*wire.LocalUpdate, err error) {
	admitted := make(map[int]*wire.LocalUpdate, len(p.Admitted))
	for _, u := range p.Admitted {
		admitted[int(u.ClientID)] = u
	}
	remaining := make([]int, 0, len(p.Cohort))
	var order []int                  // the fold order: cohort order
	var replayed []*wire.LocalUpdate // per fold position: the journaled admit, or nil
	for _, c := range p.Cohort {
		// Skip journaled admits (dedup by client × round: re-gathering one
		// would double-count it) and clients the replayed ledger knows left
		// or went silent during the crashed attempt.
		u := admitted[c]
		if u == nil && !s.mem.eligible(c, p.Round) {
			continue
		}
		if u == nil {
			remaining = append(remaining, c)
		}
		order, replayed = append(order, c), append(replayed, u)
	}
	if len(remaining) > 0 {
		owing := make(map[int]bool)
		for _, c := range s.st.Outstanding() {
			owing[c] = true
		}
		var again []int
		for _, c := range remaining {
			if !owing[c] {
				again = append(again, c)
			}
		}
		if len(again) > 0 {
			if _, err := s.dispatch.send(again, p.Round, len(p.Cohort)); err != nil {
				return nil, nil, err
			}
		}
	}
	if s.win != nil {
		if err := s.win.fold(s, p.Round, order, replayed, remaining); err != nil {
			return nil, nil, err
		}
	}
	if len(remaining) > 0 {
		if gathered, err = s.gather(remaining, p.Round); err != nil {
			return nil, nil, err
		}
	}
	byID := make(map[int]*wire.LocalUpdate, len(p.Admitted)+len(gathered))
	for _, u := range gathered {
		byID[int(u.ClientID)] = u
	}
	batch = make([]*wire.LocalUpdate, 0, len(order))
	for k, c := range order {
		if u := replayed[k]; u != nil {
			batch = append(batch, u)
		} else if u, ok := byID[c]; ok {
			batch = append(batch, u)
		}
	}
	return batch, gathered, nil
}

// dropUnreachable removes clients the transport currently knows cannot
// receive a dispatch (a dead connection with no resume yet, reported via
// comm.Unreachables), benching each like a timeout so it is retried if
// it ever comes back. Dispatching to them would only open obligations
// nothing can settle. Used only under a RoundTimeout; transports without
// connection state don't implement the interface and pass through.
func dropUnreachable(st comm.ServerTransport, mem *membership, ids []int, round int) []int {
	ur, ok := st.(comm.Unreachables)
	if !ok {
		return ids
	}
	down := ur.Unreachable()
	if len(down) == 0 {
		return ids
	}
	dead := make(map[int]bool, len(down))
	for _, c := range down {
		dead[c] = true
	}
	kept := ids[:0]
	for _, c := range ids {
		if dead[c] {
			mem.strike(c, round)
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

// splitControl separates lifecycle messages from training data: goodbyes
// update the membership roster and are removed from the batch; data
// updates clear their sender's timeout strikes. The returned slice aliases
// updates' backing array.
func splitControl(updates []*wire.LocalUpdate, mem *membership) []*wire.LocalUpdate {
	data := updates[:0]
	for _, u := range updates {
		if u.Control == wire.ControlGoodbye {
			mem.depart(int(u.ClientID), int(u.RejoinRound))
			continue
		}
		mem.reported(int(u.ClientID))
		data = append(data, u)
	}
	return data
}

// runBufferedReleases drives the FedBuff-style semi-asynchronous
// structure: every client trains continuously against the freshest model
// it has; the server releases an aggregation as soon as K updates arrive
// (in arrival order, regardless of origin) and, once the release is
// recorded, re-dispatches the new model to exactly the clients that
// contributed. Stragglers never block a release; their updates arrive
// with positive staleness and are down-weighted or dropped by the
// BufferedAggregator.
func (s *server) runBufferedReleases(resume *RecoveredServer) error {
	quorum := s.sched.Quorum()
	start, outstanding := 1, 0
	var pending *PendingRound
	if resume != nil && !resume.Fresh {
		// The obligations the crashed process opened are still live on the
		// surviving transports; resume against them instead of re-dispatching.
		start, outstanding, pending = resume.NextRound, resume.Inflight, resume.Pending
		if pending != nil {
			start = pending.Round
		}
	} else {
		all := s.sched.Cohort(1)
		if err := s.open(all, 1); err != nil {
			return fmt.Errorf("core: initial dispatch: %w", err)
		}
		outstanding = len(all)
	}
	for rel := start; rel <= s.cfg.Rounds; rel++ {
		relStart := time.Now()
		var batch, gathered []*wire.LocalUpdate
		if pending != nil {
			// The crashed process died after admitting this release batch but
			// before committing it. Refold the journaled admits — staleness is
			// computed against the restored version, exactly as the pre-crash
			// fold would have — then close the release and hand the
			// contributors the fresh model the dead process never sent.
			batch, pending = pending.Admitted, nil
		} else {
			if s.jw.shouldKill(KillBetweenRounds, rel) {
				return errServerKilled
			}
			if outstanding == 0 {
				// Everyone in flight went silent at once (a stall longer than
				// the deadline, or every upload lost in one window). Instead
				// of dying, fast-forward to the earliest bench expiry or
				// rejoin lease and re-dispatch there — a transient all-silent
				// window costs a timeout, not the run. Only when no client
				// can ever come back is the run truly starved.
				r := s.mem.nextReturn()
				if r == 0 {
					return fmt.Errorf("core: release %d has no clients in flight and none can return: %w", rel, ErrQuorum)
				}
				ids := append(s.mem.dueRejoins(r), s.mem.dueRetries(r, map[int]bool{})...)
				ids = dropUnreachable(s.st, s.mem, ids, rel)
				if len(ids) == 0 {
					return fmt.Errorf("core: release %d starved: every returnable client is unreachable: %w", rel, ErrQuorum)
				}
				if err := s.open(ids, max(rel, r)); err != nil {
					return fmt.Errorf("core: retry dispatch at release %d: %w", rel, err)
				}
				outstanding += len(ids)
			}
			got, forgiven, err := s.gatherArrivals(min(quorum, outstanding), rel)
			if err != nil {
				return fmt.Errorf("core: release %d: %w", rel, err)
			}
			outstanding -= forgiven + len(got)
			gathered = splitControl(got, s.mem)
			batch = gathered
		}
		// The contributors are read before release hands their updates back
		// to the transports.
		contributors := make([]int, 0, len(batch))
		for _, u := range batch {
			contributors = append(contributors, int(u.ClientID))
		}
		// The commit precedes the re-dispatch below: the re-dispatch opens
		// new obligations, journaled as RoundStart records after the commit,
		// so replay's outstanding count stays exact.
		if err := s.release(rel, batch, gathered, outstanding, relStart); err != nil {
			return err
		}
		// Hand the contributors the fresh model so they keep training —
		// unless the run is over, in which case they wait for Final.
		if rel < s.cfg.Rounds {
			n, err := s.redispatch(contributors, rel)
			if err != nil {
				return fmt.Errorf("core: re-dispatch after release %d: %w", rel, err)
			}
			outstanding += n
		}
		// The after-dispatch window sits at the end of the iteration so the
		// committed release's stats are recorded before the kill lands —
		// recovery resumes at the next release, not by replaying this one.
		if s.jw.shouldKill(KillAfterDispatch, rel) {
			return errServerKilled
		}
	}
	// Drain in-flight stragglers so their uploads don't block shutdown;
	// under a deadline, clients that stay silent for a whole timeout are
	// forgiven instead of blocking it forever.
	if outstanding > 0 {
		if _, _, err := s.gatherArrivals(outstanding, s.cfg.Rounds); err != nil {
			return fmt.Errorf("core: draining %d stragglers: %w", outstanding, err)
		}
	}
	return nil
}

// redispatch opens release rel+1 for ids, the contributors of release rel.
// Arrivals drive buffered scheduling, so re-admissions take an explicit
// dispatch too: leased-out clients whose rejoin falls due and, under a
// RoundTimeout, benched clients whose backoff lapsed ride along, less the
// clients the transport knows it cannot reach. It returns how many
// obligations it opened.
func (s *server) redispatch(ids []int, rel int) (int, error) {
	ids = append(ids, s.mem.dueRejoins(rel+1)...)
	if s.cfg.RoundTimeout > 0 {
		inflight := make(map[int]bool)
		for _, c := range s.st.Outstanding() {
			inflight[c] = true
		}
		ids = append(ids, s.mem.dueRetries(rel+1, inflight)...)
		ids = dropUnreachable(s.st, s.mem, ids, rel)
	}
	if len(ids) == 0 {
		return 0, nil
	}
	return len(ids), s.open(ids, rel+1)
}

// gatherArrivals takes up to want updates in arrival order. Under a
// RoundTimeout it settles for whatever arrived by the deadline instead of
// blocking on arrivals that will never come: clients still silent after a
// whole deadline are forgiven and benched, and forgiven counts them. The
// silent client's dispatch obligation dies with the forgive; the journaled
// strike carries the in-flight flag so replay reconstructs the
// outstanding-arrival count, and the retry dispatch re-admits the client
// once its backoff lapses — a lost upload costs a timeout, not the
// client's membership.
func (s *server) gatherArrivals(want, round int) (got []*wire.LocalUpdate, forgiven int, err error) {
	if s.cfg.RoundTimeout <= 0 {
		got, err = s.st.GatherAny(want)
		return got, 0, err
	}
	got, err = s.st.GatherUntil(want, s.cfg.RoundTimeout)
	if !errors.Is(err, comm.ErrRoundTimeout) {
		return got, 0, err
	}
	silent := s.st.Outstanding()
	s.st.Forgive(silent)
	for _, c := range silent {
		s.mem.strikeInflight(c, round)
	}
	return got, len(silent), nil
}
