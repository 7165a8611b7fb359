package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	appfl "repro"
	"repro/internal/comm/mpi"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/nn"
)

// The deployed-path tests build the real appfl-server and appfl-client
// binaries, run whole federations as separate processes over loopback TCP
// — clients started with nothing but -addr -id [-tenant] — and require
// the server's -save checkpoint to be byte-equal to what the in-process
// engine produces for the same configuration: the deployed path is the
// tested path, with and without a kill -9 of the server in the middle.

const deployWatchdog = 3 * time.Minute

var (
	buildOnce          sync.Once
	serverBin, cliBin  string
	buildErr           error
	buildDir           string
	clientTrainedRound = regexp.MustCompile(`(?m)^client \d+: round (\d+) uploaded`)
)

// binaries builds the two commands once per test binary.
func binaries(t *testing.T) (server, client string) {
	t.Helper()
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "appfl-deployed-"); buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", buildDir+string(filepath.Separator), "repro/cmd/appfl-server", "repro/cmd/appfl-client")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		serverBin, cliBin = filepath.Join(buildDir, "appfl-server"), filepath.Join(buildDir, "appfl-client")
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return serverBin, cliBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// output collects a process's stdout+stderr and lets a test wait for a
// line to appear.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// proc is one running binary.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  *output
	done chan error
}

func start(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(bin, args...), out: &output{}, done: make(chan error, 1)}
	p.cmd.Stdout, p.cmd.Stderr = p.out, p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	t.Cleanup(func() { p.cmd.Process.Kill() })
	return p
}

// waitFor blocks until the process has printed a match of re, failing the
// test if it exits or the watchdog fires first.
func (p *proc) waitFor(t *testing.T, re *regexp.Regexp, procs ...*proc) {
	t.Helper()
	deadline := time.Now().Add(deployWatchdog)
	for !re.MatchString(p.out.String()) {
		select {
		case err := <-p.done:
			p.done <- err
			if !re.MatchString(p.out.String()) {
				dump(t, append(procs, p)...)
				t.Fatalf("%s exited (%v) before printing %q", p.name, err, re)
			}
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			dump(t, append(procs, p)...)
			t.Fatalf("%s never printed %q", p.name, re)
		}
	}
}

// wait blocks for a clean exit.
func (p *proc) wait(t *testing.T, procs ...*proc) {
	t.Helper()
	select {
	case err := <-p.done:
		p.done <- err
		if err != nil {
			dump(t, append(procs, p)...)
			t.Fatalf("%s: %v", p.name, err)
		}
	case <-time.After(deployWatchdog):
		dump(t, append(procs, p)...)
		t.Fatalf("%s did not exit within %v", p.name, deployWatchdog)
	}
}

// dump puts every process's output in the test log — what CI uploads when
// the deployed-path step fails.
func dump(t *testing.T, procs ...*proc) {
	t.Helper()
	for _, p := range procs {
		t.Logf("---- %s %v ----\n%s", p.name, p.cmd.Args[1:], p.out.String())
	}
}

// freeAddr reserves a loopback address a server can be (re)started on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

var listening = regexp.MustCompile(`appfl-server: listening on`)

// startServer launches appfl-server on addr and waits until it listens,
// riding out the moment the OS still holds a just-freed port.
func startServer(t *testing.T, addr string, args ...string) *proc {
	t.Helper()
	server, _ := binaries(t)
	for attempt := 0; ; attempt++ {
		p := start(t, "appfl-server", server, append([]string{"-addr", addr, "-accept-timeout", "90s"}, args...)...)
		for !listening.MatchString(p.out.String()) {
			select {
			case err := <-p.done:
				if attempt > 50 || !strings.Contains(p.out.String(), "address already in use") {
					dump(t, p)
					t.Fatalf("appfl-server exited before listening: %v", err)
				}
				time.Sleep(20 * time.Millisecond)
				p = nil
			case <-time.After(2 * time.Millisecond):
			}
			if p == nil {
				break
			}
		}
		if p != nil {
			return p
		}
	}
}

// startClients launches one appfl-client per id of a tenant.
func startClients(t *testing.T, addr string, tenant, n int) []*proc {
	t.Helper()
	_, client := binaries(t)
	procs := make([]*proc, n)
	for id := range procs {
		args := []string{"-addr", addr, "-id", fmt.Sprint(id)}
		if tenant > 0 {
			args = append(args, "-tenant", fmt.Sprint(tenant))
		}
		procs[id] = start(t, fmt.Sprintf("appfl-client t%d/%d", tenant, id), client, args...)
	}
	return procs
}

// assertTrainedOnce checks, from a client's own progress lines, that it
// trained every round exactly once.
func assertTrainedOnce(t *testing.T, p *proc, rounds int) {
	t.Helper()
	count := make(map[string]int)
	for _, m := range clientTrainedRound.FindAllStringSubmatch(p.out.String(), -1) {
		count[m[1]]++
	}
	for r := 1; r <= rounds; r++ {
		if count[fmt.Sprint(r)] != 1 {
			dump(t, p)
			t.Fatalf("%s trained round %d %d times, want exactly once", p.name, r, count[fmt.Sprint(r)])
		}
	}
	if len(count) != rounds {
		dump(t, p)
		t.Fatalf("%s trained rounds %v, want 1..%d", p.name, count, rounds)
	}
}

// checkpoint serializes weights the way -save does.
func checkpoint(t *testing.T, factory appfl.Factory, w []float64) []byte {
	t.Helper()
	model := factory()
	nn.SetParams(model, w)
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, model); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// engineCheckpoint is the reference: the checkpoint the in-process engine
// produces for cfg — core.Serve over a loopback rpc.Server with one
// core.RunClient goroutine per client, which is what core.Run over
// TransportRPC is made of. With viaRun, core.Run itself is run too and
// must land on the same final loss, bit for bit.
func engineCheckpoint(t *testing.T, cfg appfl.Config, fed *appfl.Federated, factory appfl.Factory, viaRun bool) []byte {
	t.Helper()
	P := fed.NumClients()
	srv, err := rpc.Listen("127.0.0.1:0", rpc.ServerConfig{NumClients: P, Rounds: cfg.Rounds,
		ModelSize: nn.NumParams(factory())})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	errs := make(chan error, P)
	for i := 0; i < P; i++ {
		go func(i int) {
			conn, err := rpc.Dial(srv.Addr(), uint32(i), "reference")
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			errs <- core.RunClient(cfg, i, fed.Clients[i], factory, conn, core.ClientOptions{})
		}(i)
	}
	if err := srv.Accept(); err != nil {
		t.Fatal(err)
	}
	res, w, err := core.Serve(cfg, fed, factory, core.RunOptions{}, srv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < P; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("reference client: %v", err)
		}
	}
	if viaRun {
		run, err := core.Run(cfg, fed, factory, core.RunOptions{Transport: core.TransportRPC})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(run.FinalLoss) != math.Float64bits(res.FinalLoss) {
			t.Fatalf("core.Run final loss %v, Serve+RunClient %v", run.FinalLoss, res.FinalLoss)
		}
	}
	return checkpoint(t, factory, w)
}

// mpiCheckpoint is the checkpoint core.Serve produces for cfg over the
// in-process mpi transport, whose server decodes every upload whole and
// folds the batch with one Aggregate: the path a windowed rpc server must
// reproduce byte for byte.
func mpiCheckpoint(t *testing.T, cfg appfl.Config, fed *appfl.Federated, factory appfl.Factory) []byte {
	t.Helper()
	P := fed.NumClients()
	srv, cts := mpi.NewFLWorld(P)
	defer srv.Close()
	errs := make(chan error, P)
	for i := 0; i < P; i++ {
		go func(i int) {
			defer cts[i].Close()
			errs <- core.RunClient(cfg, i, fed.Clients[i], factory, cts[i], core.ClientOptions{})
		}(i)
	}
	_, w, err := core.Serve(cfg, fed, factory, core.RunOptions{}, srv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < P; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("mpi reference client: %v", err)
		}
	}
	return checkpoint(t, factory, w)
}

// federationArgs sizes every deployed federation: small enough that ten
// default local steps per round stay quick, three clients, three rounds.
var federationArgs = []string{"-clients", "3", "-rounds", "3", "-train", "48", "-test", "24", "-seed", "5"}

// TestDeployedFederationMatchesEngine: appfl-server + three appfl-client
// processes reproduce the engine's weights for the ADMM default, the DP +
// quantized + f16-downlink pipeline, streamed uploads, and dense FedAvg
// uploads sent whole, which the server folds window by window as it reads
// them — for that row the engine's checkpoint must also equal the one mpi,
// which decodes every upload whole, produces.
func TestDeployedFederationMatchesEngine(t *testing.T) {
	for name, extra := range map[string][]string{
		"iiadmm":          {"-algorithm", "iiadmm"},
		"fedavg-pipeline": {"-algorithm", "fedavg", "-pipeline", "clip:1,laplace:5,quantize:8", "-downlink-f16"},
		"fedavg-chunk":    {"-algorithm", "fedavg", "-chunk", "4096"},
		"fedavg-dense":    {"-algorithm", "fedavg"},
	} {
		t.Run(name, func(t *testing.T) {
			args := append(append([]string{}, federationArgs...), extra...)
			o, err := parseFlags(args)
			if err != nil {
				t.Fatal(err)
			}
			save := filepath.Join(t.TempDir(), "final.ckpt")
			addr := freeAddr(t)
			server := startServer(t, addr, append(args, "-save", save)...)
			clients := startClients(t, addr, 0, o.clients)
			server.wait(t, clients...)
			for _, c := range clients {
				c.wait(t, server)
				assertTrainedOnce(t, c, o.cfg.Rounds)
			}
			got, err := os.ReadFile(save)
			if err != nil {
				t.Fatal(err)
			}
			fed, factory := deploy.Workload(o.clients, o.plan())
			want := engineCheckpoint(t, o.cfg, fed, factory, true)
			if !bytes.Equal(got, want) {
				dump(t, append(clients, server)...)
				t.Fatalf("deployed checkpoint (%d B) differs from the engine's (%d B)", len(got), len(want))
			}
			if name == "fedavg-dense" && !bytes.Equal(want, mpiCheckpoint(t, o.cfg, fed, factory)) {
				t.Fatal("the windowed rpc engine's checkpoint differs from mpi's")
			}
		})
	}
}

// TestDeployedTenantHostMatchesEngine: a two-tenant -tenants host, every
// tenant's checkpoint equal to the engine's for that tenant alone.
func TestDeployedTenantHostMatchesEngine(t *testing.T) {
	dir := t.TempDir()
	tenantsFile := filepath.Join(dir, "tenants.json")
	raw := `{"slots": 1, "tenants": [
		{"name": "alpha", "clients": 2, "rounds": 3, "algorithm": "fedavg", "seed": 3, "train": 32, "test": 16},
		{"name": "beta", "clients": 3, "rounds": 2, "algorithm": "iiadmm", "seed": 7, "train": 48, "test": 16, "weight": 2}]}`
	if err := os.WriteFile(tenantsFile, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := parseTenants([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	save := filepath.Join(dir, "final.ckpt")
	addr := freeAddr(t)
	server := startServer(t, addr, "-tenants", tenantsFile, "-save", save)
	var clients []*proc
	for i, s := range file.Tenants {
		clients = append(clients, startClients(t, addr, i, s.Clients)...)
	}
	server.wait(t, clients...)
	for _, c := range clients {
		c.wait(t, server)
	}
	for i, s := range file.Tenants {
		spec, err := s.spec(i, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(fmt.Sprintf("%s.tenant-%d", save, i))
		if err != nil {
			t.Fatal(err)
		}
		if want := engineCheckpoint(t, spec.Config, spec.Fed, spec.Factory, false); !bytes.Equal(got, want) {
			dump(t, append(clients, server)...)
			t.Fatalf("tenant %s: deployed checkpoint differs from the engine's", spec.Name)
		}
	}
}

// TestDeployedServerSurvivesKill9: the journaled server is SIGKILLed after
// its round-2 progress line — at several delays into round 3, and once the
// moment round 3's first admit reaches the WAL, so that across runs the
// kill lands before the dispatch, mid-gather, between admits and commit,
// and after the commit — and the identical command is started again on the
// same address while the three client processes stay up. The final
// checkpoint must equal the uninterrupted run's, and every client must
// have trained every round exactly once — a re-dispatched round is
// answered from memory.
func TestDeployedServerSurvivesKill9(t *testing.T) {
	args := append(append([]string{}, federationArgs...), "-rounds", "5", "-algorithm", "fedavg", "-checkpoint-every", "2")
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	fed, factory := deploy.Workload(o.clients, o.plan())
	want := engineCheckpoint(t, o.cfg, fed, factory, false)

	round := func(r int) *regexp.Regexp { return regexp.MustCompile(fmt.Sprintf(`(?m)^round +%d  cohort`, r)) }
	roundTime := 200 * time.Millisecond // measured by the first run below
	// A kill trigger waits, after the round-2 line, for its moment.
	after := func(frac float64) func(string) {
		return func(string) { time.Sleep(time.Duration(frac * float64(roundTime))) }
	}
	// The round-2 commit compacted the WAL (-checkpoint-every 2), so a WAL
	// this large holds round 3's start and at least part of an admit.
	firstAdmit := func(journalDir string) {
		for deadline := time.Now().Add(deployWatchdog); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
			if st, err := os.Stat(filepath.Join(journalDir, "wal.log")); err == nil && st.Size() > 64<<10 {
				return
			}
		}
	}
	triggers := []struct {
		name string
		wait func(journalDir string)
	}{
		{"at-round-2", after(0)}, {"30%", after(0.3)}, {"60%", after(0.6)}, {"90%", after(0.9)}, {"first-admit", firstAdmit},
	}
	for i, trigger := range triggers {
		t.Run(trigger.name, func(t *testing.T) {
			dir := t.TempDir()
			save, journalDir := filepath.Join(dir, "final.ckpt"), filepath.Join(dir, "journal")
			full := append(append([]string{}, args...), "-journal", journalDir, "-save", save)
			addr := freeAddr(t)
			server := startServer(t, addr, full...)
			clients := startClients(t, addr, 0, o.clients)
			server.waitFor(t, round(1), clients...)
			t1 := time.Now()
			server.waitFor(t, round(2), clients...)
			if i == 0 {
				roundTime = time.Since(t1)
			}
			trigger.wait(journalDir)
			if err := server.cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			<-server.done

			restarted := startServer(t, addr, full...)
			restarted.wait(t, append(clients, server)...)
			if !strings.Contains(restarted.out.String(), "journal replayed") {
				dump(t, server, restarted)
				t.Fatal("the restarted server did not resume from its journal")
			}
			for _, c := range clients {
				c.wait(t, server, restarted)
				assertTrainedOnce(t, c, o.cfg.Rounds)
			}
			got, err := os.ReadFile(save)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				dump(t, append(clients, server, restarted)...)
				t.Fatal("checkpoint after kill -9 + restart differs from the uninterrupted run's")
			}
			resent := 0
			for _, c := range clients {
				resent += strings.Count(c.out.String(), "re-sent")
			}
			t.Logf("restart: %q; %d updates re-sent from memory", firstLine(restarted.out.String(), "journal replayed"), resent)
			if done := firstLine(restarted.out.String(), "appfl-server: done"); !strings.Contains(done, " fsyncs, ") {
				dump(t, restarted)
				t.Fatalf("the journaled server's done line carries no journal counters: %q", done)
			}
		})
	}
}

// TestDeployedHostileJoins: garbage, an unknown tenant and a duplicate id
// arrive during the join window; each costs its own connection, Accept
// keeps running, and the federation completes with the engine's weights.
func TestDeployedHostileJoins(t *testing.T) {
	args := append(append([]string{}, federationArgs...), "-rounds", "2", "-algorithm", "fedavg")
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	save := filepath.Join(t.TempDir(), "final.ckpt")
	addr := freeAddr(t)
	server := startServer(t, addr, append(args, "-save", save)...)

	// The first connection the server ever sees is garbage.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{9, 0, 0, 0, 4, 1, 2, 3, 4})
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, _ := conn.Read(make([]byte, 1)); n > 0 {
		t.Fatal("garbage join was answered")
	}
	conn.Close()
	if _, err := rpc.DialTenant(addr, 9, 0, "wrong-tenant"); err == nil {
		t.Fatal("join to an unknown tenant succeeded")
	}
	if _, err := rpc.Dial(addr, 17, "out-of-range"); err == nil {
		t.Fatal("join with an out-of-range id succeeded")
	}
	clients := startClients(t, addr, 0, o.clients)
	joined := regexp.MustCompile(`client-0: joined`)
	clients[0].waitFor(t, joined, server)
	if _, err := rpc.Dial(addr, 0, "duplicate"); err == nil {
		t.Fatal("duplicate join for client 0 succeeded")
	}
	server.wait(t, clients...)
	for _, c := range clients {
		c.wait(t, server)
	}
	got, err := os.ReadFile(save)
	if err != nil {
		t.Fatal(err)
	}
	fed, factory := deploy.Workload(o.clients, o.plan())
	if want := engineCheckpoint(t, o.cfg, fed, factory, false); !bytes.Equal(got, want) {
		dump(t, append(clients, server)...)
		t.Fatal("checkpoint after hostile joins differs from the engine's")
	}
}

func firstLine(s, containing string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, containing) {
			return line
		}
	}
	return ""
}

// TestUsageErrorsExitTwo: a federation without clients is refused at the
// edge — the -clients flag and a tenants file alike — with exit status 2
// and a message, not a panic further in.
func TestUsageErrorsExitTwo(t *testing.T) {
	server, _ := binaries(t)
	tenants := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(tenants, []byte(`{"tenants": [{"clients": -1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-clients", "0"},
		{"-clients", "-1"},
		{"-tenants", tenants, "-addr", "127.0.0.1:0"},
	} {
		out, err := exec.Command(server, args...).CombinedOutput()
		code := -1
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		}
		if code != 2 || !strings.Contains(string(out), "clients must be at least 1") {
			t.Errorf("appfl-server %v: exit %d (%v), output %q; want exit 2 and the refusal", args, code, err, out)
		}
	}
}
