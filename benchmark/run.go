package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// harness holds what every run of one invocation shares.
type harness struct {
	seed    uint64
	seconds float64 // time budget of one run (one workload, one trace mode)
	smoke   bool    // 3-round federations, one per run, no loss ceiling
	outDir  string
	procs   int // GOMAXPROCS pinned in every child
}

// minFederations is the least number of federations an end-to-end run
// measures, whatever the time budget: setup_s and peak_rss_mb are medians
// over federations and need more than one sample.
const minFederations = 3

func (h *harness) rounds(w workload) (rounds, warmup int) {
	if h.smoke {
		return 3, h.warmup()
	}
	return w.rounds, h.warmup()
}

func (h *harness) warmup() int {
	if h.smoke {
		return 1
	}
	return warmupRounds
}

// childRun is one finished child process: what it printed plus what only
// its parent can see.
type childRun struct {
	res   *childResult
	wall  float64 // process start → exit, seconds
	rssMB float64 // peak resident set (VmHWM), as wait4 reports it
}

// spawn re-executes the harness as a child that runs one federation on a
// fresh heap, waits for it, and returns its result. A child that fails its
// run still returns a result (res.Err set); err is for a child that
// produced no result at all.
func (h *harness) spawn(spec childSpec) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec.OutDir = h.outDir
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(specJSON), fmt.Sprintf("GOMAXPROCS=%d", h.procs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	runErr := cmd.Run()
	wall := time.Since(t0).Seconds()

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res := &childResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("child %s gave no result (%v): %w", spec.Workload, runErr, err)
	}
	run := &childRun{res: res, wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return run, nil
}

// workloadResult is everything one run (one workload, one trace mode)
// measured. Values holds the reported metrics by name; Samples how many
// samples stand behind each.
type workloadResult struct {
	Workload            string             `json:"workload"`
	Traced              bool               `json:"traced"`
	Federations         int                `json:"federations"`
	RoundsPerFederation int                `json:"rounds_per_federation"`
	Values              map[string]float64 `json:"values"`
	Samples             map[string]int     `json:"samples"`
	// Diagnostics, reported beside round_s but not gated.
	RoundMeanS       float64  `json:"round_mean_s,omitempty"`
	RoundTailS       float64  `json:"round_tail_s,omitempty"`
	RoundTailPct     float64  `json:"round_tail_percentile,omitempty"` // 0 = too few samples for a tail
	UpdatesAttempted int      `json:"updates_attempted"`
	UpdatesFailed    int      `json:"updates_failed"`
	FinalLoss        float64  `json:"final_loss"`
	FinalLossBits    uint64   `json:"final_loss_bits"`
	JournalFS        string   `json:"journal_fs,omitempty"`
	Problems         []string `json:"problems,omitempty"` // empty = outputs correct
	ElapsedS         float64  `json:"elapsed_s"`
}

func (r *workloadResult) correct() bool { return len(r.Problems) == 0 }

func (r *workloadResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// account adds one child's updates to the attempted/failed counts and
// checks what every federation must satisfy. It reports whether the
// child's measurements are usable.
func (h *harness) account(r *workloadResult, w workload, spec childSpec, run *childRun) bool {
	attempted := numClients * spec.Rounds
	r.UpdatesAttempted += attempted
	res := run.res
	if res.Err != "" {
		// A run error fails every update of the rounds that did not finish;
		// a finished barrier round without a timeout had its whole cohort.
		r.UpdatesFailed += attempted - numClients*res.RoundsDone
		r.problem("%s federation failed after %d rounds: %s", w.name, res.RoundsDone, res.Err)
		return false
	}
	r.UpdatesFailed += attempted - res.CohortSum
	if res.CohortSum != attempted {
		r.problem("%s: %d of %d updates arrived", w.name, res.CohortSum, attempted)
	}
	if res.GoMaxProcs != h.procs {
		r.problem("%s child ran at GOMAXPROCS %d, want %d", w.name, res.GoMaxProcs, h.procs)
	}
	loss := math.Float64frombits(res.FinalLossBits)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		r.problem("%s final_loss is %v", w.name, loss)
	} else if !h.smoke && loss >= w.lossCeiling {
		r.problem("%s final_loss %.6f is not under its ceiling %.3f", w.name, loss, w.lossCeiling)
	}
	return true
}

// sameLoss records a problem when a federation's final loss differs from
// the reference bits: same seed and rounds must give the same model, to
// the bit, on every path the README lists as bit-identical.
func (r *workloadResult) sameLoss(what string, got, want uint64) {
	if got != want {
		r.problem("%s final_loss %.17g differs from %.17g", what,
			math.Float64frombits(got), math.Float64frombits(want))
	}
}

// referenceLoss returns the final loss the workload must reproduce bit for
// bit: ref[w.sameLossAs] when that workload already ran in this invocation,
// otherwise from one extra federation of it (same seed, same rounds).
func (h *harness) referenceLoss(r *workloadResult, w workload, ref map[string]uint64) (uint64, bool) {
	if w.sameLossAs == "" {
		return 0, false
	}
	if bits, ok := ref[w.sameLossAs]; ok {
		return bits, true
	}
	rw, _ := findWorkload(w.sameLossAs)
	rounds, warmup := h.rounds(w)
	run, err := h.spawn(childSpec{Workload: rw.name, Seed: h.seed, Rounds: rounds, Warmup: warmup, Transport: "rpc"})
	if err == nil && run.res.Err != "" {
		err = errors.New(run.res.Err)
	}
	if err != nil {
		r.problem("reference federation %s failed: %v", rw.name, err)
		return 0, false
	}
	return run.res.FinalLossBits, true
}

// budgetLeft reports whether another step of about the last one's length
// still fits the run's time budget.
func (h *harness) budgetLeft(start time.Time, last time.Duration) bool {
	return time.Since(start)+last <= time.Duration(h.seconds*float64(time.Second))
}

// runEndToEnd measures one workload with tracing off: whole federations,
// one child process each, until the time budget is used.
func (h *harness) runEndToEnd(w workload, ref map[string]uint64) *workloadResult {
	start := time.Now()
	rounds, warmup := h.rounds(w)
	r := &workloadResult{Workload: w.name, RoundsPerFederation: rounds,
		Values: make(map[string]float64), Samples: make(map[string]int)}
	refBits, haveRef := h.referenceLoss(r, w, ref)

	var roundS, setupS, rssMB []float64
	var upB, downB uint64
	var totalRounds int
	spec := childSpec{Workload: w.name, Seed: h.seed, Rounds: rounds, Warmup: warmup, Transport: "rpc"}
	for n := 0; ; n++ {
		stepStart := time.Now()
		run, err := h.spawn(spec)
		if err != nil {
			r.problem("%v", err)
			break
		}
		if h.account(r, w, spec, run) {
			res := run.res
			if n == 0 {
				r.FinalLossBits = res.FinalLossBits
			}
			// Same seed, same rounds: every federation of the run must end on
			// the same model, and on the reference workload's where one is named.
			r.sameLoss(w.name+" (federation "+fmt.Sprint(n+1)+")", res.FinalLossBits, r.FinalLossBits)
			total := 0.0
			for _, s := range res.WallSec {
				total += s
			}
			roundS = append(roundS, res.WallSec[warmup:]...)
			setupS = append(setupS, run.wall-total)
			rssMB = append(rssMB, run.rssMB)
			upB, downB = upB+res.UploadsB, downB+res.DownloadsB
			totalRounds += len(res.WallSec)
			r.Federations++
		}
		if len(r.Problems) > 0 || h.smoke {
			break
		}
		if r.Federations >= minFederations && !h.budgetLeft(start, time.Since(stepStart)) {
			break
		}
	}
	if haveRef && r.Federations > 0 {
		r.sameLoss(w.name+" vs "+w.sameLossAs, r.FinalLossBits, refBits)
	}
	r.FinalLoss = math.Float64frombits(r.FinalLossBits)
	if r.Federations > 0 {
		r.Values["setup_s"], r.Samples["setup_s"] = median(setupS), len(setupS)
		r.Values["round_s"], r.Samples["round_s"] = median(roundS), len(roundS)
		r.Values["peak_rss_mb"], r.Samples["peak_rss_mb"] = median(rssMB), len(rssMB)
		r.Values["uplink_mb_per_round"] = float64(upB) / float64(totalRounds) / 1e6
		r.Values["downlink_mb_per_round"] = float64(downB) / float64(totalRounds) / 1e6
		r.Samples["uplink_mb_per_round"], r.Samples["downlink_mb_per_round"] = totalRounds, totalRounds
		r.RoundMeanS = mean(roundS)
		if p, ok := tailPercentile(len(roundS)); ok {
			r.RoundTailPct, r.RoundTailS = p, quantile(roundS, p/100)
		}
	}
	r.ElapsedS = time.Since(start).Seconds()
	return r
}

// runTraced measures one workload's per-layer metrics: it alternates an
// untraced federation (the reference for tracing overhead, and the source
// of the allocation counts) with a traced one — and, on wide_dense, a
// traced one over the in-process mpi transport — until the budget is used.
func (h *harness) runTraced(w workload, ref map[string]uint64) *workloadResult {
	start := time.Now()
	rounds, warmup := h.rounds(w)
	r := &workloadResult{Workload: w.name, Traced: true, RoundsPerFederation: rounds,
		Values: make(map[string]float64), Samples: make(map[string]int)}
	refBits, haveRef := h.referenceLoss(r, w, ref)
	withMPI := w.name == "wide_dense"

	pooled := make(map[string][]float64) // per-layer samples over all traced federations
	var untracedS, mpiS, allocMB, mallocs, gcs []float64
	measured := float64(rounds - warmup)
	// One iteration: untraced, traced, and on wide_dense traced over mpi.
	base := childSpec{Workload: w.name, Seed: h.seed, Rounds: rounds, Warmup: warmup, Transport: "rpc"}
	steps := []childSpec{base, base}
	steps[1].Traced = true
	steps[1].TraceFile = filepath.Join(h.outDir, "trace_"+w.name+".json")
	if withMPI {
		mpi := steps[1]
		mpi.Transport, mpi.TraceFile = "mpi", filepath.Join(h.outDir, "trace_"+w.name+"_mpi.json")
		steps = append(steps, mpi)
	}
	for n := 0; ; n++ {
		stepStart := time.Now()
		for _, spec := range steps {
			run, err := h.spawn(spec)
			if err != nil {
				r.problem("%v", err)
				break
			}
			if !h.account(r, w, spec, run) {
				break
			}
			res := run.res
			switch {
			case !spec.Traced:
				if n == 0 {
					r.FinalLossBits = res.FinalLossBits
				}
				untracedS = append(untracedS, res.WallSec[warmup:]...)
				allocMB = append(allocMB, float64(res.AllocBytes)/measured/1e6)
				mallocs = append(mallocs, float64(res.Mallocs)/measured)
				gcs = append(gcs, float64(res.GCCycles))
			case spec.Transport == "mpi":
				mpiS = append(mpiS, res.Layers["traced_round_s"]...)
			default:
				for name, xs := range res.Layers {
					pooled[name] = append(pooled[name], xs...)
				}
			}
			// Tracing and the transport are timing-only: every federation of
			// the run must end on the same model, to the bit.
			what := w.name + " untraced"
			if spec.Traced {
				what = w.name + " traced over " + spec.Transport
			}
			r.sameLoss(what, res.FinalLossBits, r.FinalLossBits)
		}
		r.Federations++
		if len(r.Problems) > 0 || h.smoke {
			break
		}
		if r.Federations >= 2 && !h.budgetLeft(start, time.Since(stepStart)) {
			break
		}
	}
	if haveRef {
		r.sameLoss(w.name+" vs "+w.sameLossAs, r.FinalLossBits, refBits)
	}
	r.FinalLoss = math.Float64frombits(r.FinalLossBits)

	// Every per-layer metric is reported; a layer the workload does not
	// use has no samples and reports 0.
	for _, m := range perLayer {
		r.Values[m.name], r.Samples[m.name] = median(pooled[m.name]), len(pooled[m.name])
	}
	for name, xs := range pooled { // diagnostics: per-stage pipeline times, traced_round_s
		if _, listed := r.Values[name]; !listed {
			r.Values[name], r.Samples[name] = median(xs), len(xs)
		}
	}
	set := func(name string, v float64, n int) { r.Values[name], r.Samples[name] = v, n }
	set("alloc_mb_per_round", median(allocMB), len(allocMB))
	set("mallocs_per_round", median(mallocs), len(mallocs))
	set("gc_cycles", median(gcs), len(gcs))
	// Sum, not median: retransmits are rare events, counted over the run.
	sum := 0.0
	for _, x := range pooled["chunk_retransmits"] {
		sum += x
	}
	set("chunk_retransmits", sum, len(pooled["chunk_retransmits"]))
	traced := pooled["traced_round_s"]
	if u := median(untracedS); u > 0 && len(traced) > 0 {
		set("trace_overhead_frac", median(traced)/u-1, len(traced))
	}
	if withMPI && len(mpiS) > 0 {
		set("transport_gap_s", median(traced)-median(mpiS), len(mpiS))
	}
	r.ElapsedS = time.Since(start).Seconds()
	return r
}

// environment identifies what a result was measured on, so that two
// result files can be refused as not comparable.
type environment struct {
	GitCommit    string  `json:"git_commit"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	Seed         uint64  `json:"seed"`
	RunSeconds   float64 `json:"run_seconds"`
	WarmupRounds int     `json:"warmup_rounds"`
	Clients      int     `json:"clients"`
	JournalDir   string  `json:"journal_dir"`
	JournalFS    string  `json:"journal_fs"`
	Smoke        bool    `json:"smoke"`
}

func (h *harness) environment() environment {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		GitCommit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: h.procs,
		Seed: h.seed, RunSeconds: h.seconds, WarmupRounds: h.warmup(), Clients: numClients,
		JournalDir: h.outDir, JournalFS: fsName(h.outDir), Smoke: h.smoke,
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
