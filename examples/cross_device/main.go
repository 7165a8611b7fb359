// Cross-device federated learning with true partial participation — the
// regime the Scheduler × Aggregator split exists for. A 16-client
// federation trains FedAvg, but each round the sampled-cohort scheduler
// picks only a quarter of the clients: the rest receive no model and
// spend neither compute nor bandwidth.
//
// A second run uses the FedBuff-style buffered scheduler with one
// simulated straggler: aggregations release as soon as K updates land, so
// the slow device never blocks a round and its late updates are folded in
// down-weighted by staleness.
//
//	go run ./examples/cross_device
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	appfl "repro"
)

func main() {
	const clients = 16
	fed := appfl.MNISTFederation(clients, 1600, 320, 21)
	factory := appfl.MLPFactory(28*28, []int{32}, 10, 21)

	fmt.Println("=== sampled cohorts: 4 of 16 clients per round ===")
	sampled, err := appfl.Run(appfl.Config{
		Algorithm:      appfl.AlgoFedAvg,
		Rounds:         8,
		LocalSteps:     1,
		BatchSize:      32,
		Seed:           21,
		Scheduler:      appfl.SchedSampled,
		CohortFraction: 0.25,
	}, fed, factory, appfl.RunOptions{Progress: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}

	full, err := appfl.Run(appfl.Config{
		Algorithm:  appfl.AlgoFedAvg,
		Rounds:     8,
		LocalSteps: 1,
		BatchSize:  32,
		Seed:       21,
	}, fed, factory, appfl.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsampled cohort: acc %.3f, uploads %8d B\n", sampled.FinalAcc, sampled.UploadsB)
	fmt.Printf("all clients:    acc %.3f, uploads %8d B\n", full.FinalAcc, full.UploadsB)
	fmt.Printf("traffic saved by scheduling: %.0f%%\n\n",
		100*(1-float64(sampled.UploadsB)/float64(full.UploadsB)))

	fmt.Println("=== buffered semi-async: release every K=4 arrivals, client 15 is slow ===")
	buffered, err := appfl.Run(appfl.Config{
		Algorithm:  appfl.AlgoFedAvg,
		Rounds:     8,
		LocalSteps: 1,
		BatchSize:  32,
		Seed:       21,
		Scheduler:  appfl.SchedBuffered,
		BufferK:    4,
	}, fed, factory, appfl.RunOptions{
		Progress: os.Stdout,
		ClientDelay: func(client, round int) time.Duration {
			if client == 15 {
				return 100 * time.Millisecond // a phone on a bad link
			}
			return 0
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbuffered: acc %.3f, %d stale updates folded, %d dropped\n",
		buffered.FinalAcc, buffered.Stale, buffered.Dropped)
}
