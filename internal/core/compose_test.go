package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// composition is one point of the feature grid TestConfigCompositions
// walks: every combination of the knobs below, FedAvg throughout.
type composition struct {
	sched   string
	chunk   int
	subset  float64
	pipe    string
	timeout time.Duration
	journal bool
}

func (c composition) String() string {
	j := "nojournal"
	if c.journal {
		j = "journal"
	}
	return fmt.Sprintf("%s/chunk=%d/subset=%g/pipe=%q/timeout=%v/%s", c.sched, c.chunk, c.subset, c.pipe, c.timeout, j)
}

// compositionRules is every cross-feature rule of Config.Validate and
// ValidateJournalConfig that the grid can reach: when it applies, and the
// error text that names it. A config the validators reject must match a
// row that applies to it, a config they accept must match none, and every
// row must fire somewhere in the grid — so a rule added, dropped or
// changed without its row fails the test.
var compositionRules = []struct {
	name    string
	applies func(c composition) bool
	err     string
}{
	{"chunk fold needs a barrier", func(c composition) bool { return c.chunk > 0 && c.sched == SchedBuffered },
		"StreamChunk requires a barrier scheduler"},
	{"chunk gather has no forgive path", func(c composition) bool { return c.chunk > 0 && c.timeout > 0 },
		"StreamChunk and RoundTimeout cannot combine"},
	{"subset fold needs a barrier", func(c composition) bool { return c.subset > 0 && c.sched == SchedBuffered },
		"SubsetFrac requires a barrier scheduler"},
	{"subset is cut from a dense release", func(c composition) bool { return c.subset > 0 && c.pipe == "clip:1,f16" },
		"SubsetFrac needs a dense release"},
	{"subset is already sub-O(dim)", func(c composition) bool { return c.subset > 0 && c.chunk > 0 },
		"SubsetFrac and StreamChunk cannot combine"},
	{"chunk folds leave no admit primal", func(c composition) bool { return c.journal && c.chunk > 0 },
		"journaling and StreamChunk cannot combine"},
}

// compositions generates the grid: schedulers × StreamChunk × SubsetFrac ×
// Pipeline × RoundTimeout × journal.
func compositions() []composition {
	var out []composition
	for _, sched := range []string{SchedSyncAll, SchedSampled, SchedBuffered} {
		for _, chunk := range []int{0, 64} {
			for _, subset := range []float64{0, 0.5} {
				for _, pipe := range []string{"", "clip:1,laplace:5", "clip:1,f16"} {
					for _, timeout := range []time.Duration{0, time.Second} {
						for _, j := range []bool{false, true} {
							out = append(out, composition{sched, chunk, subset, pipe, timeout, j})
						}
					}
				}
			}
		}
	}
	return out
}

func (c composition) config() Config {
	cfg := Config{
		Algorithm:    AlgoFedAvg,
		Rounds:       2,
		LocalSteps:   1,
		BatchSize:    8,
		Seed:         3,
		Scheduler:    c.sched,
		StreamChunk:  c.chunk,
		SubsetFrac:   c.subset,
		Pipeline:     c.pipe,
		RoundTimeout: c.timeout,
	}
	if c.sched == SchedSampled {
		cfg.CohortFraction = 0.5
	}
	return cfg.WithDefaults()
}

// composeFed is a 4-client federation over 4×4 single-channel inputs, so
// the model below has 172 parameters: a 64-coordinate chunk splits it
// into three windows, the last one partial.
func composeFed() (*dataset.Federated, nn.Factory) {
	mk := func(n int, seed uint64) *dataset.InMemory {
		r := rng.New(seed)
		x := tensor.New(n, 1, 4, 4)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(4)
		}
		data := x.Data()
		for i := range data {
			data[i] = r.Float64() + 0.25*float64(labels[i/16])
		}
		return dataset.NewInMemory(x, labels, 4)
	}
	fed := &dataset.Federated{Clients: dataset.PartitionIID(mk(64, 1), 4, rng.New(2)), Test: mk(16, 3)}
	return fed, func() nn.Module { return nn.NewMLP(16, []int{8}, 4, rng.New(4)) }
}

// TestConfigCompositions checks every point of the generated grid: a
// config the validators accept runs two rounds to a finite loss, and one
// they reject is rejected by a rule the table names. Every accepted
// journaled point also runs with a server kill at round 2 in each kill
// window (see checkKillWindows).
func TestConfigCompositions(t *testing.T) {
	fed, factory := composeFed()
	fired := make([]bool, len(compositionRules))
	// unjournaled holds each accepted unjournaled point's run, keyed by the
	// point; the grid visits it just before its journaled twin.
	unjournaled := make(map[composition]*Result)
	for _, c := range compositions() {
		cfg := c.config()
		err := cfg.Validate()
		if err == nil && c.journal {
			err = ValidateJournalConfig(cfg)
		}
		if err != nil {
			row := -1
			for i, r := range compositionRules {
				if strings.Contains(err.Error(), r.err) {
					row = i
				}
			}
			switch {
			case row < 0:
				t.Errorf("%v: rejected by a rule with no row in compositionRules: %v", c, err)
			case !compositionRules[row].applies(c):
				t.Errorf("%v: rejected by %q, whose row says it does not apply", c, compositionRules[row].name)
			default:
				fired[row] = true
			}
			continue
		}
		for _, r := range compositionRules {
			if r.applies(c) {
				t.Errorf("%v: accepted, but rule %q says it is rejected", c, r.name)
			}
		}
		opts := RunOptions{Transport: TransportMPI}
		if c.journal {
			j, err := journal.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			j.NoSync = true
			opts.Journal = j
		}
		res, err := Run(cfg, fed, factory, opts)
		if opts.Journal != nil {
			opts.Journal.Close()
		}
		if err != nil {
			t.Errorf("%v: %v", c, err)
			continue
		}
		if len(res.Rounds) != 2 || math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
			t.Errorf("%v: %d rounds, final loss %v", c, len(res.Rounds), res.FinalLoss)
		}
		if !c.journal {
			unjournaled[c] = res
			continue
		}
		twin := c
		twin.journal = false
		checkKillWindows(t, c, fed, factory, unjournaled[twin])
	}
	for i, r := range compositionRules {
		if !fired[i] {
			t.Errorf("rule %q never rejected a config of the grid", r.name)
		}
	}
}

// checkKillWindows runs the journaled point c with a server kill at round
// 2 in each kill window. A barrier run must reproduce base, the same
// point's unjournaled run, bit for bit: per-round test loss and cohort
// size. A buffered run folds in arrival order, so it must record every
// round once, in order, with exactly one kill and one recovery.
func checkKillWindows(t *testing.T, c composition, fed *dataset.Federated, factory nn.Factory, base *Result) {
	t.Helper()
	if base == nil {
		t.Errorf("%v: no unjournaled run to compare with", c)
		return
	}
	cfg := c.config()
	for w := KillWindow(0); w < numKillWindows; w++ {
		j, err := journal.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		j.NoSync = true
		res, err := Run(cfg, fed, factory, RunOptions{
			Transport: TransportMPI,
			Journal:   j,
			Kills:     []ServerKill{{Round: 2, Window: w}},
		})
		j.Close()
		if err != nil {
			t.Errorf("%v, kill %v: %v", c, w, err)
			continue
		}
		if res.Soak.Kills != 1 || res.Soak.Recoveries != 1 {
			t.Errorf("%v, kill %v: %d kills, %d recoveries; want 1 and 1", c, w, res.Soak.Kills, res.Soak.Recoveries)
		}
		if len(res.Rounds) != cfg.Rounds {
			t.Errorf("%v, kill %v: %d rounds recorded, want %d", c, w, len(res.Rounds), cfg.Rounds)
			continue
		}
		for i, rs := range res.Rounds {
			if rs.Round != i+1 {
				t.Errorf("%v, kill %v: round %d recorded as %d", c, w, i+1, rs.Round)
				continue
			}
			if c.sched == SchedBuffered {
				continue
			}
			if b := base.Rounds[i]; rs.TestLoss != b.TestLoss || rs.CohortSize != b.CohortSize {
				t.Errorf("%v, kill %v: round %d loss %v cohort %d, unjournaled run %v cohort %d",
					c, w, rs.Round, rs.TestLoss, rs.CohortSize, b.TestLoss, b.CohortSize)
			}
		}
	}
}
