// Command appfl-client joins a cross-silo federation served by
// appfl-server. Each client owns one shard of the synthetic corpus — in a
// real deployment this is where an institution's private data would live.
// Everything the federation shares (algorithm, hyperparameters, seed,
// pipeline, corpus size) arrives from the server in the JoinAck's plan, so
// a client is started with an address and an id; the flags below are the
// knobs that are the client's own. It is flag parsing around
// core.RunClient, the client loop the simulator and every test run: a
// client whose server is killed and restarted resumes its session and
// carries on.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/deploy"
)

func main() {
	addr := flag.String("addr", "localhost:9000", "server address")
	id := flag.Int("id", 0, "client id in [0, clients of the federation)")
	localSteps := flag.Int("local-steps", 10, "local steps L")
	batch := flag.Int("batch", 64, "mini-batch size")
	eps := flag.Float64("eps", 0, "privacy budget: composes clip:1,laplace:eps over the server's default stack (0 = non-private; not with a server-side -pipeline)")
	name := flag.String("name", "", "client display name")
	tenantID := flag.Int("tenant", 0, "tenant id on a multi-tenant server (0 = default tenant; -id is then local to the tenant)")
	flag.Parse()

	if *id < 0 || *tenantID < 0 {
		fatal(fmt.Errorf("-id %d and -tenant %d must be non-negative", *id, *tenantID))
	}
	// A bad budget is refused before the join handshake, like a flag error.
	if err := deploy.CheckEpsilon(*eps); err != nil {
		fmt.Fprintln(os.Stderr, "appfl-client: -eps:", err)
		os.Exit(2)
	}
	display := *name
	if display == "" {
		display = fmt.Sprintf("client-%d", *id)
	}
	conn, err := rpc.DialTenant(*addr, uint32(*tenantID), uint32(*id), display)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()

	// The server's plan is the one source of truth for what is shared.
	ack := conn.Config()
	cfg, err := deploy.ClientConfig(ack.Plan, *eps)
	if err != nil {
		fatal(err)
	}
	cfg.LocalSteps, cfg.BatchSize = *localSteps, *batch
	fed, factory := deploy.Workload(int(ack.NumClients), ack.Plan)
	fmt.Printf("%s: joined %s (%s, %d clients, %d rounds, dim %d, local data %d samples)\n",
		display, *addr, cfg.Algorithm, ack.NumClients, ack.Rounds, ack.ModelSize, fed.Clients[*id].Len())

	if err := core.RunClient(cfg, *id, fed.Clients[*id], factory, conn, core.ClientOptions{Progress: os.Stdout}); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: training complete\n", display)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "appfl-client:", err)
	os.Exit(1)
}
