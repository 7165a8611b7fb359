// Asynchronous federated learning on heterogeneous hardware — the paper's
// future-work item 1 (async updates) and the Section IV-E load-imbalance
// observation, combined. Three clients run on simulated A100/V100/CPU
// devices under the buffered scheduler with a buffer of one: the server
// folds every update the moment it lands and hands the contributor the
// fresh model, so the fast client contributes many updates while the slow
// one's arrive stale and are down-weighted by (1+staleness)^(−γ) — the
// model never waits on the slowest silo.
//
//	go run ./examples/async_fl
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	appfl "repro"
	"repro/internal/hetero"
)

// deviceSecond is how much wall time the example spends per simulated
// device-second: a V100's 6.96 s local update takes ~14 ms here.
const deviceSecond = 2 * time.Millisecond

func main() {
	devices := []hetero.Device{hetero.A100, hetero.V100, hetero.CPU}
	fed := appfl.MNISTFederation(len(devices), 480, 160, 8)
	factory := appfl.MLPFactory(28*28, []int{32}, 10, 8)
	cfg := appfl.Config{
		Algorithm: appfl.AlgoFedAvg, LocalSteps: 1, BatchSize: 32, LR: 0.05, Momentum: 0.9,
		Scheduler: appfl.SchedBuffered, BufferK: 1, AsyncAlpha: 0.6, AsyncGamma: 0.5,
		Rounds: 24, // releases: one per arriving update
	}
	res, err := appfl.Run(cfg, fed, factory, appfl.RunOptions{
		Progress: os.Stdout,
		// One local update is one work unit on the client's device.
		ClientDelay: func(client, _ int) time.Duration {
			return time.Duration(devices[client].Seconds(1) * float64(deviceSecond))
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nasync federation applied %d updates (%d arrived stale and were down-weighted); accuracy %.2f%% loss %.4f\n",
		len(res.Rounds), res.Stale, 100*res.FinalAcc, res.FinalLoss)
	fmt.Printf("A100 is %.2fx faster than V100 (paper §IV-E: 1.64x) — async keeps it busy\n",
		hetero.A100.SpeedupOver(hetero.V100))
}
