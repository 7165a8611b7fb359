// Cross-silo federated learning over real TCP: a server and three clients
// exchange models through the gRPC-substitute RPC transport (length-
// prefixed frames, protobuf-style codec), all within this process so the
// example is self-contained. It is cmd/appfl-server and cmd/appfl-client
// in miniature: the server side is core.Serve over a listening rpc.Server,
// each silo is core.RunClient over its own dialed connection.
//
//	go run ./examples/cross_silo
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	appfl "repro"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/nn"
)

const numClients = 3

func main() {
	cfg := appfl.Config{Algorithm: appfl.AlgoIIADMM, Rounds: 4, LocalSteps: 2, Pipeline: "clip:1,laplace:10", Seed: 2}
	fed := appfl.MNISTFederation(numClients, 480, 120, cfg.Seed)
	factory := appfl.CNNFactory(appfl.CNNConfig{
		InChannels: 1, Height: 28, Width: 28, Classes: 10,
		Conv1: 4, Conv2: 8, Hidden: 32,
	}, cfg.Seed)

	srv, err := rpc.Listen("127.0.0.1:0", rpc.ServerConfig{
		NumClients:    numClients,
		Rounds:        cfg.Rounds,
		ModelSize:     nn.NumParams(factory()),
		AcceptTimeout: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server listening on %s\n", srv.Addr())

	// Silo processes: dial in, then train on every model the server sends
	// until its final frame arrives.
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := rpc.Dial(srv.Addr(), uint32(i), fmt.Sprintf("silo-%d", i))
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()
			if err := core.RunClient(cfg, i, fed.Clients[i], factory, conn, core.ClientOptions{}); err != nil {
				log.Fatal(err)
			}
		}(i)
	}

	if err := srv.Accept(); err != nil {
		log.Fatal(err)
	}
	res, _, err := core.Serve(cfg, fed, factory, core.RunOptions{Progress: os.Stdout}, srv)
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	fmt.Printf("TCP traffic at server: sent %d B, received %d B over %d messages\n",
		res.DownloadsB, res.UploadsB, res.Server.MsgsSent+res.Server.MsgsRecv)
}
