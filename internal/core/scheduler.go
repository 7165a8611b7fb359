package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
	"repro/internal/rng"
)

// Scheduler names accepted in Config.Scheduler.
const (
	SchedSyncAll  = "syncall"  // every client, barrier per round (default)
	SchedSampled  = "sampled"  // pseudorandom cohort per round, barrier
	SchedBuffered = "buffered" // FedBuff-style: release after K arrivals
)

// Buffered-scheduler defaults applied when the corresponding Config
// fields are zero.
const (
	DefaultAsyncAlpha = 0.6
	DefaultAsyncGamma = 0.5
)

// Scheduler is the participation half of the split server: it decides
// which clients train in a round and when a gathered batch is released to
// the Aggregator. It is deliberately ignorant of *how* a batch updates the
// model — that is the Aggregator's job.
type Scheduler interface {
	// Name returns the scheduler's Config identifier.
	Name() string
	// Cohort returns the sorted client IDs scheduled for round t (1-based).
	Cohort(round int) []int
	// Barrier reports whether the round blocks until the whole cohort has
	// reported (true: SyncAll, SampledCohort) or releases a batch as soon
	// as Quorum updates have arrived from anyone (false: Buffered).
	Barrier() bool
	// Quorum is the number of arrivals that releases an aggregation when
	// Barrier is false; barrier schedulers return the cohort size.
	Quorum() int
}

// NewScheduler constructs the scheduler for cfg over numClients clients.
func NewScheduler(cfg Config, numClients int) (Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numClients <= 0 {
		return nil, fmt.Errorf("core: scheduler needs at least one client, got %d", numClients)
	}
	switch cfg.Scheduler {
	case "", SchedSyncAll:
		return SyncAll{NumClients: numClients}, nil
	case SchedSampled:
		min := cfg.CohortMin
		if min <= 0 {
			min = 1
		}
		if min > numClients {
			return nil, fmt.Errorf("core: CohortMin %d exceeds %d clients", min, numClients)
		}
		return SampledCohort{
			NumClients: numClients,
			Fraction:   cfg.CohortFraction,
			MinClients: min,
			Seed:       cfg.Seed,
		}, nil
	case SchedBuffered:
		k := cfg.BufferK
		if k <= 0 {
			k = (numClients + 1) / 2
		}
		if k > numClients {
			return nil, fmt.Errorf("core: BufferK %d exceeds %d clients", k, numClients)
		}
		return Buffered{NumClients: numClients, K: k}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler %q", cfg.Scheduler)
	}
}

// SyncAll schedules every client every round — the classic synchronous
// barrier under which the split path degenerates to the pre-refactor
// behavior bit for bit.
type SyncAll struct {
	NumClients int
}

// Name returns the scheduler identifier.
func (s SyncAll) Name() string { return SchedSyncAll }

// Cohort returns all client IDs.
func (s SyncAll) Cohort(round int) []int { return comm.AllClients(s.NumClients) }

// Barrier reports that the round blocks on the full cohort.
func (s SyncAll) Barrier() bool { return true }

// Quorum is the full federation.
func (s SyncAll) Quorum() int { return s.NumClients }

// SampledCohort schedules a pseudorandom fraction of the federation each
// round — the cross-device regime where only a cohort of the (possibly
// enormous) client population trains. Selection is deterministic in
// (Seed, round), so a run is reproducible, and clients outside the cohort
// receive no model at all: they spend neither compute nor bandwidth.
type SampledCohort struct {
	NumClients int
	// Fraction of clients scheduled per round, in (0,1].
	Fraction float64
	// MinClients floors the cohort size (secure-aggregation-style minimum).
	MinClients int
	// Seed drives the per-round pseudorandom selection.
	Seed uint64
}

// Name returns the scheduler identifier.
func (s SampledCohort) Name() string { return SchedSampled }

// size is the fixed cohort size implied by Fraction and MinClients.
func (s SampledCohort) size() int {
	k := int(math.Ceil(s.Fraction * float64(s.NumClients)))
	if k < s.MinClients {
		k = s.MinClients
	}
	if k < 1 {
		k = 1
	}
	if k > s.NumClients {
		k = s.NumClients
	}
	return k
}

// Cohort draws a uniform k-subset of the roster with a seeded partial
// Fisher–Yates over a sparse overlay: only the k draws and their swap
// targets ever materialize, so one round costs O(k log k) time and O(k)
// memory no matter how large the roster is — a 1M-entry federation is
// never enumerated. The draw is deterministic in (Seed, round) and returned ascending.
func (s SampledCohort) Cohort(round int) []int {
	k := s.size()
	if k == s.NumClients {
		return comm.AllClients(s.NumClients)
	}
	r := rng.New(cohortScore(s.Seed, round, 0))
	// overlay holds only the displaced entries of the virtual roster
	// permutation; an id absent from it still sits at its own index.
	overlay := make(map[int]int, 2*k)
	at := func(i int) int {
		if v, ok := overlay[i]; ok {
			return v
		}
		return i
	}
	ids := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(s.NumClients-i)
		ids[i] = at(j)
		overlay[j] = at(i)
	}
	sort.Ints(ids)
	return ids
}

// Barrier reports that the round blocks on the sampled cohort.
func (s SampledCohort) Barrier() bool { return true }

// Quorum is the cohort size.
func (s SampledCohort) Quorum() int { return s.size() }

// Buffered is the FedBuff-style semi-asynchronous scheduler: every client
// trains continuously, and the server releases an aggregation to the
// BufferedAggregator as soon as K updates have arrived — stragglers never
// block a release; their late updates arrive stale and are down-weighted
// (or dropped beyond MaxStaleness) by the aggregator.
type Buffered struct {
	NumClients int
	// K is the buffer size: arrivals per release. The staleness drop
	// threshold lives on the BufferedAggregator, which enforces it.
	K int
}

// Name returns the scheduler identifier.
func (s Buffered) Name() string { return SchedBuffered }

// Cohort returns all client IDs: everyone trains continuously; the round
// argument is ignored because participation is arrival-driven.
func (s Buffered) Cohort(round int) []int { return comm.AllClients(s.NumClients) }

// Barrier reports that releases are arrival-driven, not cohort-blocking.
func (s Buffered) Barrier() bool { return false }

// Quorum is the buffer size K.
func (s Buffered) Quorum() int { return s.K }

// cohortScore hashes (seed, round, client) with a splitmix64 finalizer,
// so cohorts vary per round but are reproducible from the seed. The
// sampler uses it (client 0) to derive the per-round draw stream.
func cohortScore(seed uint64, round, client int) uint64 {
	x := seed ^ (uint64(round) * 0x9e3779b97f4a7c15) ^ (uint64(client)+1)*0xbf58476d1ce4e5b9
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
