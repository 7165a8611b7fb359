package appfl

import "testing"

func TestFacadeQuickstartPath(t *testing.T) {
	fed := MNISTFederation(2, 128, 64, 1)
	if fed.NumClients() != 2 || fed.TotalTrain() != 128 {
		t.Fatalf("federation geometry: %d clients, %d train", fed.NumClients(), fed.TotalTrain())
	}
	factory := MLPFactory(28*28, []int{16}, 10, 1)
	res, err := Run(Config{
		Algorithm:  AlgoIIADMM,
		Rounds:     2,
		LocalSteps: 1,
		BatchSize:  32,
	}, fed, factory, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 || res.ModelDim == 0 {
		t.Fatalf("result incomplete: %+v", res)
	}
}

func TestFacadeFederationBuilders(t *testing.T) {
	cases := []struct {
		name    string
		fed     *Federated
		classes int
		shape   [3]int
	}{
		{"mnist", MNISTFederation(3, 30, 10, 2), 10, [3]int{1, 28, 28}},
		{"cifar10", CIFAR10Federation(3, 30, 10, 2), 10, [3]int{3, 32, 32}},
		{"coronahack", CoronaHackFederation(3, 30, 10, 2), 3, [3]int{1, 64, 64}},
		{"femnist", FEMNISTFederation(5, 6, 10, 2), 62, [3]int{1, 28, 28}},
	}
	for _, c := range cases {
		if c.fed.NumClients() < 3 {
			t.Errorf("%s: %d clients", c.name, c.fed.NumClients())
		}
		ds := c.fed.Clients[0]
		if ds.Classes() != c.classes {
			t.Errorf("%s: %d classes, want %d", c.name, ds.Classes(), c.classes)
		}
		sh := ds.Shape()
		if sh[0] != c.shape[0] || sh[1] != c.shape[1] || sh[2] != c.shape[2] {
			t.Errorf("%s: shape %v, want %v", c.name, sh, c.shape)
		}
		if c.fed.Test == nil || c.fed.Test.Len() == 0 {
			t.Errorf("%s: missing test set", c.name)
		}
	}
}

func TestFacadeCNNFactoryDeterministic(t *testing.T) {
	cfg := CNNConfig{InChannels: 1, Height: 8, Width: 8, Classes: 2, Conv1: 2, Conv2: 2, Kernel: 3, Hidden: 4}
	a := CNNFactory(cfg, 5)()
	b := CNNFactory(cfg, 5)()
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !pa[i].Value.EqualWithin(pb[i].Value, 0) {
			t.Fatal("same-seed factories produced different models")
		}
	}
	c := CNNFactory(cfg, 6)()
	if c.Params()[0].Value.EqualWithin(pa[0].Value, 0) {
		t.Fatal("different seeds produced identical models")
	}
}

func TestFacadeTransportsExposed(t *testing.T) {
	fed := MNISTFederation(2, 64, 16, 4)
	factory := MLPFactory(28*28, []int{8}, 10, 4)
	for _, tr := range []struct {
		name string
		opt  RunOptions
	}{
		{"mpi", RunOptions{Transport: TransportMPI}},
		{"pubsub", RunOptions{Transport: TransportPubSub}},
	} {
		res, err := Run(Config{Algorithm: AlgoFedAvg, Rounds: 1, LocalSteps: 1, BatchSize: 32}, fed, factory, tr.opt)
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		if res.UploadsB == 0 {
			t.Fatalf("%s: no traffic recorded", tr.name)
		}
	}
}
