package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/journal"
)

// countingGate admits every batch at once and counts the acquisitions.
type countingGate struct{ n atomic.Int64 }

func (g *countingGate) Acquire(int) func() {
	g.n.Add(1)
	return func() {}
}

// TestResumedRoundTakesTheGate: every fold takes the admission gate, the
// refold of a round a kill left in flight included — a recovering tenant
// must not fold past the host's arbiter. A kill before the commit lands
// inside the gate after the acquisition, so that round takes it twice:
// acquisitions == recorded rounds + before-commit kills.
func TestResumedRoundTakesTheGate(t *testing.T) {
	fed, factory := composeFed()
	for _, sched := range []string{SchedSyncAll, SchedBuffered} {
		for w := KillWindow(0); w < numKillWindows; w++ {
			t.Run(fmt.Sprintf("%s/%v", sched, w), func(t *testing.T) {
				j, err := journal.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				j.NoSync = true
				gate := &countingGate{}
				cfg := composition{sched: sched, journal: true}.config()
				res, err := Run(cfg, fed, factory, RunOptions{
					Transport: TransportMPI,
					Journal:   j,
					Kills:     []ServerKill{{Round: 2, Window: w}},
					Gate:      gate,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rounds) != cfg.Rounds || res.Soak.Kills != 1 {
					t.Fatalf("%d rounds recorded, %d kills; want %d and 1", len(res.Rounds), res.Soak.Kills, cfg.Rounds)
				}
				want := int64(len(res.Rounds))
				if w == KillBeforeCommit {
					want++
				}
				if got := gate.n.Load(); got != want {
					t.Fatalf("%d gate acquisitions for %d recorded rounds and a kill %v, want %d",
						got, len(res.Rounds), w, want)
				}
			})
		}
	}
}
