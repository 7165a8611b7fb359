// Quickstart: privacy-preserving federated learning in ~20 lines.
//
// Four hospitals jointly train the paper's CNN on (synthetic) MNIST with
// the paper's IIADMM algorithm and ε̄=10 Laplace output perturbation,
// without any raw data leaving a client.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	appfl "repro"
)

func main() {
	fed := appfl.MNISTFederation(4, 960, 240, 1)
	factory := appfl.CNNFactory(appfl.CNNConfig{
		InChannels: 1, Height: 28, Width: 28, Classes: 10,
		Conv1: 4, Conv2: 8, Hidden: 32,
	}, 1)

	res, err := appfl.Run(appfl.Config{
		Algorithm: appfl.AlgoIIADMM,
		Rounds:    8,
		Pipeline:  "clip:1,laplace:10", // ε̄-differential privacy on every upload
	}, fed, factory, appfl.RunOptions{Progress: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nfinal test accuracy: %.2f%% (chance: 10%%)\n", 100*res.FinalAcc)
	fmt.Printf("each client uploaded one %d-parameter model per round — no data, no duals\n", res.ModelDim)
}
