// Serverless federated learning — the paper's future-work item 1:
// "decentralized privacy-preserving algorithms that allow the neighboring
// communication without the central server". Eight clients sit on a ring;
// each round they train locally, exchange Laplace-perturbed models with
// their two neighbors only, and average with Metropolis weights. No
// coordinator ever sees the models, yet the ring reaches consensus and
// learns.
//
//	go run ./examples/decentralized
package main

import (
	"fmt"
	"log"

	appfl "repro"
	"repro/internal/core"
)

func main() {
	const clients = 8
	fed := appfl.MNISTFederation(clients, 640, 160, 11)
	factory := appfl.MLPFactory(28*28, []int{32}, 10, 11)

	cfg := appfl.Config{
		Algorithm:  appfl.AlgoFedAvg, // local solver; aggregation is gossip
		Rounds:     6,
		LocalSteps: 2,
		BatchSize:  32,
		Pipeline:   "clip:1,laplace:10", // every exchanged model is ε̄-DP perturbed
		Seed:       11,
	}
	topo := core.Ring(clients)
	fmt.Printf("ring of %d clients, each talking only to 2 neighbors\n\n", clients)
	res, err := core.RunDecentralized(cfg, fed, factory, topo)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Rounds {
		fmt.Printf("round %d  mean client accuracy %.4f  consensus distance %.4f\n",
			r.Round, r.MeanTestAcc, r.Consensus)
	}
	fmt.Printf("\nfinal mean accuracy %.2f%% — no server ever existed\n", 100*res.FinalAcc)
}
