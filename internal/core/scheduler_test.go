package core

import (
	"testing"
	"time"
)

func TestNewSchedulerDefaultsToSyncAll(t *testing.T) {
	for _, name := range []string{"", SchedSyncAll} {
		cfg := Config{Algorithm: AlgoIIADMM, Scheduler: name}.WithDefaults()
		cfg.Scheduler = name // WithDefaults fills ""; test both spellings
		s, err := NewScheduler(cfg, 5)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if !s.Barrier() || s.Quorum() != 5 {
			t.Fatalf("%q: barrier %v quorum %d", name, s.Barrier(), s.Quorum())
		}
		cohort := s.Cohort(3)
		if len(cohort) != 5 {
			t.Fatalf("syncall cohort %v", cohort)
		}
		for i, id := range cohort {
			if id != i {
				t.Fatalf("syncall cohort %v not the identity", cohort)
			}
		}
	}
}

func TestNewSchedulerRejectsUnknownName(t *testing.T) {
	cfg := Config{Algorithm: AlgoFedAvg, Scheduler: "psychic"}.WithDefaults()
	cfg.Scheduler = "psychic"
	if _, err := NewScheduler(cfg, 4); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestSampledCohortDeterministicAndSized(t *testing.T) {
	s := SampledCohort{NumClients: 20, Fraction: 0.3, MinClients: 2, Seed: 7}
	for round := 1; round <= 5; round++ {
		a := s.Cohort(round)
		b := s.Cohort(round)
		if len(a) != 6 { // ceil(0.3*20)
			t.Fatalf("round %d cohort size %d, want 6", round, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d cohort not deterministic: %v vs %v", round, a, b)
			}
			if i > 0 && a[i] <= a[i-1] {
				t.Fatalf("round %d cohort not sorted ascending: %v", round, a)
			}
			if a[i] < 0 || a[i] >= 20 {
				t.Fatalf("round %d cohort id out of range: %v", round, a)
			}
		}
	}
}

func TestSampledCohortVariesAcrossRounds(t *testing.T) {
	s := SampledCohort{NumClients: 30, Fraction: 0.2, MinClients: 1, Seed: 11}
	same := 0
	const rounds = 20
	first := s.Cohort(1)
	for round := 2; round <= rounds+1; round++ {
		c := s.Cohort(round)
		equal := len(c) == len(first)
		if equal {
			for i := range c {
				if c[i] != first[i] {
					equal = false
					break
				}
			}
		}
		if equal {
			same++
		}
	}
	if same == rounds {
		t.Fatal("sampled cohorts never changed across rounds")
	}
}

func TestSampledCohortCoversEveryClientEventually(t *testing.T) {
	s := SampledCohort{NumClients: 10, Fraction: 0.3, MinClients: 1, Seed: 3}
	seen := map[int]bool{}
	for round := 1; round <= 60; round++ {
		for _, id := range s.Cohort(round) {
			seen[id] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("only %d of 10 clients ever scheduled", len(seen))
	}
}

func TestSampledCohortMinClientsFloor(t *testing.T) {
	s := SampledCohort{NumClients: 8, Fraction: 0.01, MinClients: 3, Seed: 1}
	if got := len(s.Cohort(1)); got != 3 {
		t.Fatalf("cohort size %d, want MinClients floor 3", got)
	}
	if s.Quorum() != 3 {
		t.Fatalf("quorum %d, want 3", s.Quorum())
	}
}

func TestNewSchedulerSampledValidation(t *testing.T) {
	cfg := Config{Algorithm: AlgoFedAvg, Scheduler: SchedSampled, CohortFraction: 0.5, CohortMin: 9}.WithDefaults()
	if _, err := NewScheduler(cfg, 4); err == nil {
		t.Fatal("CohortMin beyond the federation accepted")
	}
	bad := Config{Algorithm: AlgoIIADMM, Scheduler: SchedSampled, CohortFraction: 0.5}.WithDefaults()
	if err := bad.Validate(); err == nil {
		t.Fatal("sampled cohorts with an ADMM algorithm accepted")
	}
	noFrac := Config{Algorithm: AlgoFedAvg, Scheduler: SchedSampled}.WithDefaults()
	if err := noFrac.Validate(); err == nil {
		t.Fatal("sampled scheduler without CohortFraction accepted")
	}
}

func TestBufferedSchedulerDefaults(t *testing.T) {
	cfg := Config{Algorithm: AlgoFedAvg, Scheduler: SchedBuffered}.WithDefaults()
	s, err := NewScheduler(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Barrier() {
		t.Fatal("buffered scheduler must not barrier")
	}
	if s.Quorum() != 5 { // (9+1)/2
		t.Fatalf("default quorum %d, want 5", s.Quorum())
	}
	if cfg.AsyncAlpha != DefaultAsyncAlpha || cfg.AsyncGamma != DefaultAsyncGamma {
		t.Fatalf("buffered defaults not applied: %+v", cfg)
	}
}

func TestBufferedSchedulerValidation(t *testing.T) {
	cfg := Config{Algorithm: AlgoFedAvg, Scheduler: SchedBuffered, BufferK: 10}.WithDefaults()
	if _, err := NewScheduler(cfg, 4); err == nil {
		t.Fatal("BufferK beyond the federation accepted")
	}
	bad := Config{Algorithm: AlgoICEADMM, Scheduler: SchedBuffered}.WithDefaults()
	if err := bad.Validate(); err == nil {
		t.Fatal("buffered scheduling with an ADMM algorithm accepted")
	}
}

// TestSyncAllSchedulerReproducesLegacyTrajectory is the degeneracy
// guarantee of the split: an explicit all-clients schedule must reproduce
// the default run bit for bit, for every algorithm.
func TestSyncAllSchedulerReproducesLegacyTrajectory(t *testing.T) {
	fed := tinyFed(t, 3, 192, 48)
	for _, algo := range []string{AlgoFedAvg, AlgoICEADMM, AlgoIIADMM} {
		base := Config{Algorithm: algo, Rounds: 3, LocalSteps: 1, BatchSize: 32, Seed: 4}
		explicit := base
		explicit.Scheduler = SchedSyncAll
		a, err := Run(base, fed, tinyFactory(), RunOptions{})
		if err != nil {
			t.Fatalf("%s base: %v", algo, err)
		}
		b, err := Run(explicit, fed, tinyFactory(), RunOptions{})
		if err != nil {
			t.Fatalf("%s explicit: %v", algo, err)
		}
		if a.FinalAcc != b.FinalAcc || a.FinalLoss != b.FinalLoss {
			t.Fatalf("%s: explicit syncall diverged: %v/%v vs %v/%v",
				algo, a.FinalAcc, a.FinalLoss, b.FinalAcc, b.FinalLoss)
		}
	}
}

// TestFullFractionSampledEqualsSyncAll: a sampled cohort covering the
// whole federation degenerates to the synchronous barrier exactly.
func TestFullFractionSampledEqualsSyncAll(t *testing.T) {
	fed := tinyFed(t, 3, 192, 48)
	sync := Config{Algorithm: AlgoFedAvg, Rounds: 3, LocalSteps: 1, BatchSize: 32, Seed: 5}
	sampled := sync
	sampled.Scheduler = SchedSampled
	sampled.CohortFraction = 1.0
	a, err := Run(sync, fed, tinyFactory(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sampled, fed, tinyFactory(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAcc != b.FinalAcc || a.FinalLoss != b.FinalLoss {
		t.Fatalf("full-fraction sampled diverged from syncall: %v/%v vs %v/%v",
			a.FinalAcc, a.FinalLoss, b.FinalAcc, b.FinalLoss)
	}
}

func TestSampledCohortRunAllTransports(t *testing.T) {
	fed := tinyFed(t, 6, 240, 60)
	cfg := Config{
		Algorithm:      AlgoFedAvg,
		Rounds:         3,
		LocalSteps:     1,
		BatchSize:      32,
		Seed:           9,
		Scheduler:      SchedSampled,
		CohortFraction: 0.5,
	}
	accs := map[Transport]float64{}
	for _, tr := range []Transport{TransportMPI, TransportPubSub, TransportRPC} {
		res, err := Run(cfg, fed, tinyFactory(), RunOptions{Transport: tr})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if len(res.Rounds) != 3 {
			t.Fatalf("%s: %d rounds", tr, len(res.Rounds))
		}
		for _, rs := range res.Rounds {
			if rs.CohortSize != 3 {
				t.Fatalf("%s round %d: cohort %d, want 3", tr, rs.Round, rs.CohortSize)
			}
		}
		accs[tr] = res.FinalAcc
	}
	if accs[TransportMPI] != accs[TransportPubSub] || accs[TransportMPI] != accs[TransportRPC] {
		t.Fatalf("transports disagree under sampled cohorts: %v", accs)
	}
}

// TestSampledCohortSavesTraffic: scheduling half the clients must halve
// the per-round traffic relative to full participation.
func TestSampledCohortSavesTraffic(t *testing.T) {
	fed := tinyFed(t, 4, 128, 32)
	full := Config{Algorithm: AlgoFedAvg, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 2}
	half := full
	half.Scheduler = SchedSampled
	half.CohortFraction = 0.5
	a, err := Run(full, fed, tinyFactory(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(half, fed, tinyFactory(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.UploadsB*2 != a.UploadsB {
		t.Fatalf("half cohort uploads %d, full %d — want exactly half", b.UploadsB, a.UploadsB)
	}
	// Downloads carry one constant extra: the final shutdown broadcast goes
	// to all clients in both runs, so the half-cohort run sits a few header
	// bytes above an exact half.
	if diff := 2*b.DownloadsB - a.DownloadsB; diff < 0 || diff > 1024 {
		t.Fatalf("half cohort downloads %d, full %d — want half plus the shutdown constant", b.DownloadsB, a.DownloadsB)
	}
}

func TestBufferedRunConvergesAndCountsReleases(t *testing.T) {
	fed := tinyFed(t, 4, 320, 120)
	cfg := Config{
		Algorithm:  AlgoFedAvg,
		Rounds:     8,
		LocalSteps: 1,
		BatchSize:  32,
		Seed:       3,
		Scheduler:  SchedBuffered,
		BufferK:    2,
	}
	res, err := Run(cfg, fed, tinyFactory(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 8 {
		t.Fatalf("releases %d, want 8", len(res.Rounds))
	}
	for _, rs := range res.Rounds {
		if rs.CohortSize != 2 {
			t.Fatalf("release %d aggregated %d updates, want K=2", rs.Round, rs.CohortSize)
		}
	}
	if res.FinalAcc < 0.2 { // chance is 0.1
		t.Fatalf("buffered training accuracy %.3f did not beat chance", res.FinalAcc)
	}
}

func TestBufferedRunAllTransports(t *testing.T) {
	fed := tinyFed(t, 3, 150, 30)
	cfg := Config{
		Algorithm:  AlgoFedAvg,
		Rounds:     4,
		LocalSteps: 1,
		BatchSize:  32,
		Seed:       8,
		Scheduler:  SchedBuffered,
		BufferK:    2,
	}
	for _, tr := range []Transport{TransportMPI, TransportPubSub, TransportRPC} {
		res, err := Run(cfg, fed, tinyFactory(), RunOptions{Transport: tr})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if len(res.Rounds) != 4 {
			t.Fatalf("%s: releases %d", tr, len(res.Rounds))
		}
	}
}

// TestBufferedReleaseDoesNotWaitForStraggler injects one slow client and
// checks the semi-async property directly: releases keep completing while
// the straggler is asleep, so total wall time stays far below what a
// barrier on the straggler would cost.
func TestBufferedReleaseDoesNotWaitForStraggler(t *testing.T) {
	fed := tinyFed(t, 4, 160, 40)
	const stragglerSleep = 250 * time.Millisecond
	cfg := Config{
		Algorithm:  AlgoFedAvg,
		Rounds:     4,
		LocalSteps: 1,
		BatchSize:  32,
		Seed:       5,
		Scheduler:  SchedBuffered,
		BufferK:    2,
	}
	delay := func(client, round int) time.Duration {
		if client == 3 {
			return stragglerSleep
		}
		return 0
	}
	start := time.Now()
	res, err := Run(cfg, fed, tinyFactory(), RunOptions{ClientDelay: delay, ValidateEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(res.Rounds) != 4 {
		t.Fatalf("releases %d", len(res.Rounds))
	}
	// A synchronous barrier would pay ≥ 4×250 ms = 1 s on the straggler
	// alone; buffered releases wait for it at most once (the drain).
	if elapsed > 3*stragglerSleep {
		t.Fatalf("buffered run took %v, straggler appears to block releases", elapsed)
	}
}

// TestSampledCohortHugeRosterIsOCohort: the partial Fisher–Yates draw
// must make cohort sampling independent of roster size — a 10M-client
// roster samples a 100-client cohort effectively instantly, where the
// old O(N log N) ranking would enumerate ten million entries per round.
func TestSampledCohortHugeRosterIsOCohort(t *testing.T) {
	s := SampledCohort{NumClients: 10_000_000, Fraction: 1e-9, MinClients: 100, Seed: 7}
	start := time.Now()
	var ids []int
	for round := 1; round <= 50; round++ {
		ids = s.Cohort(round)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("50 cohort draws over a 10M roster took %v — sampling is not O(cohort)", el)
	}
	if len(ids) != 100 {
		t.Fatalf("cohort size %d, want 100", len(ids))
	}
	seen := map[int]bool{}
	for i, id := range ids {
		if id < 0 || id >= s.NumClients {
			t.Fatalf("cohort member %d out of roster", id)
		}
		if seen[id] {
			t.Fatalf("duplicate cohort member %d", id)
		}
		seen[id] = true
		if i > 0 && ids[i-1] >= id {
			t.Fatal("cohort not sorted ascending")
		}
	}
	// Determinism: the same (seed, round) reproduces the draw.
	a, b := s.Cohort(3), s.Cohort(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cohort draw not deterministic")
		}
	}
}
