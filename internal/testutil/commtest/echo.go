package commtest

import (
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/wire"
)

// Echo is a cohort of echo clients: each answers every model it receives
// with a dim-sized update whose values name the client and the round —
// id + round/1024 + the model's coordinate, the model cycled — until the
// final model.
type Echo struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// StartEcho runs client i of the cohort on clients[i]. A client whose
// receive or send fails records the failure and ends the session with
// stop, which closes the server: the gather waiting on that client then
// fails at once, instead of at the test binary's timeout — on mpi too,
// whose client Close does nothing.
func StartEcho(clients []comm.ClientTransport, dim int, stop func()) *Echo {
	e := new(Echo)
	for i, c := range clients {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			if err := echo(c, i, dim); err != nil {
				e.mu.Lock()
				if e.err == nil {
					e.err = fmt.Errorf("echo client %d: %w", i, err)
				}
				e.mu.Unlock()
				stop()
			}
		}()
	}
	return e
}

// Err returns the first client failure, or nil: what a gather that failed
// blames.
func (e *Echo) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Wait waits for every client to have taken the final model, and returns
// the first client failure.
func (e *Echo) Wait() error {
	e.wg.Wait()
	return e.Err()
}

// echo is client id's loop.
func echo(c comm.ClientTransport, id, dim int) error {
	primal := make([]float64, dim)
	u := &wire.LocalUpdate{ClientID: uint32(id), NumSamples: 1, Primal: primal}
	for {
		gm, err := c.RecvGlobal()
		if err != nil {
			return err
		}
		if gm.Final {
			return nil
		}
		for i := range primal {
			primal[i] = float64(id) + float64(gm.Round)/1024 + gm.Weights[i%len(gm.Weights)]
		}
		u.Round = gm.Round
		if err := c.SendUpdate(u); err != nil {
			return err
		}
	}
}
