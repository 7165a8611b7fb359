package appfl_test

import (
	"fmt"
	"log"

	appfl "repro"
)

// ExampleMNISTFederation shows how a corpus is split across clients.
func ExampleMNISTFederation() {
	fed := appfl.MNISTFederation(4, 100, 20, 1)
	fmt.Println(fed.NumClients(), fed.TotalTrain(), fed.Test.Len())
	// Output: 4 100 20
}

// ExampleRun trains a small private federation end to end.
func ExampleRun() {
	fed := appfl.MNISTFederation(2, 64, 16, 1)
	factory := appfl.MLPFactory(28*28, []int{8}, 10, 1)
	res, err := appfl.Run(appfl.Config{
		Algorithm:  appfl.AlgoIIADMM,
		Rounds:     2,
		LocalSteps: 1,
		BatchSize:  32,
		Pipeline:   "clip:1,laplace:10",
	}, fed, factory, appfl.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(res.Rounds), res.ModelDim > 0)
	// Output: 2 true
}
