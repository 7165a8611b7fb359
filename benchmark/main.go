// Command benchmark is flround, the repository's benchmark: end-to-end
// federated rounds of four clients over loopback rpc, five workloads, and
// a per-layer trace taken from outside the program. See README.md here
// and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                 every workload: end-to-end, then traced
//	go run ./benchmark -repeat 2       two end-to-end sets, compared against the bounds
//	go run ./benchmark -smoke          3-round federations, for a quick check
//	go run ./benchmark --workload wide_dense --seed 7 --seconds 20 --trace 0
//
// The last form is the driver's: one workload, one JSON object on the last
// line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is run_seconds of BENCHMARK.json: how long one run of one
// workload measures.
const defaultSeconds = 20

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// parentMain parses the command line and runs the harness. It returns the
// process exit code: 0 only when every output was correct.
func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
	seed := fs.Uint64("seed", 1, "seed of the generated federation, model and Config.Seed")
	seconds := fs.Float64("seconds", defaultSeconds, "time budget of one run of one workload")
	trace := fs.Int("trace", 0, "with -workload: 0 measures end to end with tracing off, 1 measures the per-layer metrics")
	repeat := fs.Int("repeat", 1, "end-to-end sets to run; with 2 or more the first two are compared against the bounds")
	smoke := fs.Bool("smoke", false, "3-round federations, one per run, no loss ceilings: a quick check that everything runs")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for trace files, the result file and journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	h := &harness{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *out, procs: min(runtime.NumCPU(), 4)}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "flround:", err)
		return 2
	}
	if *name != "" {
		return runOne(h, *name, *trace == 1, stdout)
	}
	return runAll(h, *repeat, stdout)
}

// driverResult is the one-line result the driver reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry: one workload, one trace mode, and the
// result as the last line of standard output.
func runOne(h *harness, name string, traced bool, stdout io.Writer) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "flround: unknown workload %q\n", name)
		return 2
	}
	var r *workloadResult
	defs := endToEnd
	if traced {
		r, defs = h.runTraced(w, nil), perLayer
	} else {
		r = h.runEndToEnd(w, nil)
	}
	printEnvironment(stdout, h.environment())
	printResult(stdout, r)
	res := driverResult{Correct: r.correct(), Attempted: max(r.UpdatesAttempted, 1), Failed: r.UpdatesFailed,
		Metrics: make(map[string]driverMetric)}
	for _, m := range defs {
		res.Metrics[m.name] = driverMetric{Value: r.Values[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flround:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !r.correct() {
		return 1
	}
	return 0
}

// report is the full result of one invocation without -workload.
type report struct {
	Environment environment         `json:"environment"`
	EndToEnd    [][]*workloadResult `json:"end_to_end_sets"` // one slice of workloads per -repeat set
	PerLayer    []*workloadResult   `json:"per_layer"`
	Repeat      []repeatRow         `json:"repeat,omitempty"`
	Correct     bool                `json:"correct"`
}

// repeatRow compares one metric of one workload across two sets of runs.
type repeatRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Gap      float64 `json:"relative_gap"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within_bound"`
}

// runAll runs every workload end to end (sets times), then traced, checks
// the outputs across workloads, and prints and writes everything.
func runAll(h *harness, sets int, stdout io.Writer) int {
	rep := &report{Environment: h.environment(), Correct: true}
	printEnvironment(stdout, rep.Environment)
	for s := 0; s < max(sets, 1); s++ {
		ref := make(map[string]uint64) // final losses of this set, for the bit-identity checks
		var set []*workloadResult
		for _, w := range workloads {
			r := h.runEndToEnd(w, ref)
			ref[w.name] = r.FinalLossBits
			printResult(stdout, r)
			rep.Correct = rep.Correct && r.correct()
			set = append(set, r)
		}
		rep.EndToEnd = append(rep.EndToEnd, set)
	}
	ref := make(map[string]uint64)
	for _, r := range rep.EndToEnd[0] {
		ref[r.Workload] = r.FinalLossBits
	}
	for _, w := range workloads {
		r := h.runTraced(w, ref)
		// The traced run must land on the end-to-end run's model too.
		r.sameLoss(w.name+" traced run vs end-to-end run", r.FinalLossBits, ref[w.name])
		printResult(stdout, r)
		rep.Correct = rep.Correct && r.correct()
		rep.PerLayer = append(rep.PerLayer, r)
	}
	if sets >= 2 {
		rep.Repeat = compareSets(rep.EndToEnd[0], rep.EndToEnd[1])
		fmt.Fprintf(stdout, "\nrepeat: two sets of runs of the same code\n%-14s %-22s %12s %12s %8s %7s\n",
			"workload", "metric", "first", "second", "gap", "bound")
		for _, row := range rep.Repeat {
			mark := ""
			if !row.Within {
				mark, rep.Correct = "  EXCEEDS BOUND", false
			}
			fmt.Fprintf(stdout, "%-14s %-22s %12.6g %12.6g %7.2f%% %6.0f%%%s\n",
				row.Workload, row.Metric, row.First, row.Second, 100*row.Gap, 100*row.Bound, mark)
		}
	}
	path := filepath.Join(h.outDir, "result.json")
	buf, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		err = os.WriteFile(path, buf, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flround:", err)
		return 2
	}
	fmt.Fprintf(stdout, "\nresult with environment block: %s\ntraces: %s\n", path, filepath.Join(h.outDir, "trace_<workload>.json"))
	if !rep.Correct {
		fmt.Fprintln(stdout, "FAILED: see the problems above")
		return 1
	}
	fmt.Fprintln(stdout, "all outputs correct")
	return 0
}

// compareSets pairs every end-to-end metric of every workload across two sets.
func compareSets(first, second []*workloadResult) []repeatRow {
	var rows []repeatRow
	for i, a := range first {
		b := second[i]
		for _, m := range endToEnd {
			gap := relGap(a.Values[m.name], b.Values[m.name])
			rows = append(rows, repeatRow{Workload: a.Workload, Metric: m.name, First: a.Values[m.name],
				Second: b.Values[m.name], Gap: gap, Bound: m.bound, Within: gap <= m.bound})
		}
	}
	return rows
}

func printEnvironment(w io.Writer, e environment) {
	fmt.Fprintf(w, "flround: commit %s, %s, nproc %d, GOMAXPROCS %d, %d clients, seed %d, %g s per run, %d warm-up rounds, journals in %s (%s)\n",
		e.GitCommit, e.GoVersion, e.NProc, e.GoMaxProcs, e.Clients, e.Seed, e.RunSeconds, e.WarmupRounds, e.JournalDir, e.JournalFS)
}

// printResult prints one run's metrics by name with unit, sample count and
// workload, then its counts and any correctness problem.
func printResult(w io.Writer, r *workloadResult) {
	kind, defs := "end to end, tracing off", endToEnd
	if r.Traced {
		kind, defs = "per layer, traced", perLayer
	}
	fmt.Fprintf(w, "\n%s (%s): %d federations of %d rounds, %.1f s\n", r.Workload, kind, r.Federations, r.RoundsPerFederation, r.ElapsedS)
	row := func(name, label, unit string) {
		fmt.Fprintf(w, "  %-14s %-28s %14.6g %-8s n=%d\n", r.Workload, label, r.Values[name], unit, r.Samples[name])
	}
	listed := make(map[string]bool)
	for _, m := range defs {
		listed[m.name] = true
		row(m.name, m.name, m.unit)
		if m.name == "round_s" && !r.Traced {
			fmt.Fprintf(w, "  %-14s %-28s %14.6g %-8s n=%d\n", r.Workload, "round_mean_s (diagnostic)", r.RoundMeanS, "s", r.Samples["round_s"])
			if r.RoundTailPct > 0 {
				fmt.Fprintf(w, "  %-14s %-28s %14.6g %-8s n=%d\n", r.Workload,
					fmt.Sprintf("round_tail_s (p%g, diag.)", r.RoundTailPct), r.RoundTailS, "s", r.Samples["round_s"])
			} else {
				fmt.Fprintf(w, "  %-14s %-28s %14s %-8s n=%d\n", r.Workload, "round_tail_s (diagnostic)", "too few", "s", r.Samples["round_s"])
			}
		}
	}
	for _, name := range sortedKeys(r.Values) { // per-stage pipeline times and other diagnostics
		if !listed[name] {
			unit := "s"
			if strings.HasSuffix(name, "_frac") {
				unit = "frac"
			}
			row(name, name+" (diag.)", unit)
		}
	}
	fmt.Fprintf(w, "  %-14s updates_attempted %d, updates_failed %d, final_loss %.9g\n", r.Workload, r.UpdatesAttempted, r.UpdatesFailed, r.FinalLoss)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}
