// Command appfl-bench regenerates every table and figure of the paper's
// evaluation section and writes the results as plain text and CSV under a
// results directory.
//
// Usage:
//
//	appfl-bench [-only table1|fig2|fig3|fig4|hetero|commvol|scenarios|perf|stream|soak|all]
//	            [-out results] [-scale small|medium|paper] [-json]
//
// An unknown -only value is rejected with the list of valid artifacts
// (it used to match nothing and exit green without producing anything).
//
// The -scale flag trades fidelity for time in the training-based Figure 2
// sweep: "small" finishes in about a minute on a laptop, "paper" uses the
// full geometry (203 FEMNIST writers, 50 rounds) and runs for hours.
//
// The "perf" artifact runs the machine-readable performance harness
// (internal/bench): sharded-aggregation throughput and parallel speedup,
// wire-codec MB/s, pipeline stage cost and compression ratios, and round
// latency under a straggler. With -json the report is also written to
// <out>/BENCH.json — the document CI diffs against BENCH_baseline.json.
//
// The "stream" artifact runs the chunked-uplink harness (bench.RunStream)
// at the -dim/-stream-clients/-stream-chunk/-workers geometry: the
// resident chunk-window footprint of a streamed round versus the
// monolithic cohort, and the streamed fold throughput.
//
// The "soak" artifact runs the durability harness (bench.RunSoak): the
// write-ahead journal's per-admit append cost and the crash-recovery
// replay time over a 50-round journal.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// artifacts is the closed set of -only values; "all" runs every one.
var artifacts = []string{"table1", "fig2", "fig3", "fig4", "hetero", "commvol", "scenarios", "perf", "stream", "soak"}

// slicesContains reports whether xs contains x.
func slicesContains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func main() {
	only := flag.String("only", "all", "artifact to regenerate: "+strings.Join(artifacts, "|")+"|all")
	out := flag.String("out", "results", "output directory")
	scale := flag.String("scale", "small", "fig2 scale: small|medium|paper")
	jsonOut := flag.Bool("json", false, "write the perf report to <out>/BENCH.json")
	dim := flag.Int("dim", 1<<20, "model dimension of the perf probes")
	workers := flag.Int("workers", 8, "sharded width of the parallel perf probes")
	streamClients := flag.Int("stream-clients", 8, "cohort size of the stream harness")
	streamChunk := flag.Int("stream-chunk", 16384, "chunk size in coordinates of the stream harness")
	printProcs := flag.Bool("print-gomaxprocs", false, "print the effective GOMAXPROCS and exit (CI records it next to the bench artifact)")
	flag.Parse()

	if *printProcs {
		fmt.Println(runtime.GOMAXPROCS(0))
		return
	}
	// An unknown -only used to match nothing and exit successfully having
	// produced no artifact — a silently green no-op. Reject it instead.
	if *only != "all" && !slicesContains(artifacts, *only) {
		fatal(fmt.Errorf("unknown -only artifact %q; valid: %s, all", *only, strings.Join(artifacts, ", ")))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	run := func(name string) bool { return *only == "all" || *only == name }

	if run("perf") {
		rep, err := bench.NewSuite(bench.Options{Dim: *dim, Workers: *workers}).Run()
		if err != nil {
			fatal(err)
		}
		t := metrics.NewTable(
			fmt.Sprintf("Performance harness (dim=%d, workers=%d, GOMAXPROCS=%d)", *dim, *workers, rep.GoMaxProcs),
			"metric", "value", "unit", "direction", "gated")
		for _, m := range rep.Metrics {
			dir := "higher"
			if !m.HigherIsBetter {
				dir = "lower"
			}
			t.AddRowf(m.Name, fmt.Sprintf("%.3f", m.Value), m.Unit, dir, m.Gated)
		}
		emit(*out, "perf", t)
		if *jsonOut {
			path := filepath.Join(*out, "BENCH.json")
			if err := rep.WriteJSON(path); err != nil {
				fatal(err)
			}
			fmt.Printf("perf: wrote %s (%d metrics)\n", path, len(rep.Metrics))
		}
	}
	if run("stream") {
		res, err := bench.RunStream(bench.StreamOptions{
			Dim:     *dim,
			Clients: *streamClients,
			Chunk:   *streamChunk,
			Workers: *workers,
		})
		if err != nil {
			fatal(err)
		}
		emit(*out, "stream", res.Table())
	}
	if run("soak") {
		res, err := bench.RunSoak(bench.SoakOptions{})
		if err != nil {
			fatal(err)
		}
		emit(*out, "soak", res.Table())
	}
	if run("table1") {
		emit(*out, "table1", experiments.Table1())
	}
	if run("fig3") {
		_, t := experiments.Fig3(experiments.Fig3Options{})
		emit(*out, "fig3", t)
	}
	if run("fig4") {
		res, t := experiments.Fig4(experiments.Fig4Options{MeasureCodec: true})
		emit(*out, "fig4", t)
		fmt.Printf("fig4: gRPC/MPI mean ratio %.1f, max round spread %.1fx, codec %.0f MB/s\n",
			res.MeanRatio, res.MaxSpread, res.SerializeBps/1e6)
	}
	if run("hetero") {
		_, t := experiments.Hetero()
		emit(*out, "hetero", t)
	}
	if run("commvol") {
		_, t, err := experiments.CommVolume(experiments.CommVolumeOptions{})
		if err != nil {
			fatal(err)
		}
		emit(*out, "commvol", t)
	}
	if run("scenarios") {
		fmt.Println("scenarios: chaos matrix (crash rounds wait out their timeouts; expect ~a minute)...")
		rows, t, err := experiments.Scenarios(experiments.ScenarioOptions{})
		if err != nil {
			fatal(err)
		}
		emit(*out, "scenarios", t)
		crashed, rejoined, timedOut := 0, 0, 0
		for _, r := range rows {
			crashed += r.Crashed
			rejoined += r.Rejoined
			timedOut += r.TimedOut
		}
		fmt.Printf("scenarios: %d runs absorbed %d crashes, %d rejoins, %d timed-out obligations\n",
			len(rows), crashed, rejoined, timedOut)
	}
	if run("fig2") {
		opts := experiments.Fig2Options{}
		switch *scale {
		case "small":
			opts.Rounds = 6
			opts.TrainSize = 384
			opts.TestSize = 128
			opts.Writers = 12
		case "medium":
			opts.Rounds = 15
			opts.TrainSize = 1200
			opts.TestSize = 400
			opts.Writers = 40
		case "paper":
			opts.Rounds = 50
			opts.TrainSize = 12000
			opts.TestSize = 2000
			opts.Writers = 203
		default:
			fatal(fmt.Errorf("unknown scale %q", *scale))
		}
		fmt.Printf("fig2: running %s-scale sweep (this trains 48 federated models)...\n", *scale)
		pts, t, err := experiments.Fig2(opts)
		if err != nil {
			fatal(err)
		}
		emit(*out, "fig2", t)
		// Also write the full per-round trajectories for plotting.
		traj := metrics.NewTable("Figure 2 trajectories", "dataset", "algorithm", "epsilon", "round", "accuracy")
		for _, p := range pts {
			for i, a := range p.AccByRnd {
				traj.AddRowf(p.Dataset, p.Algorithm, p.Epsilon, i+1, a)
			}
		}
		if err := os.WriteFile(filepath.Join(*out, "fig2_trajectories.csv"), []byte(traj.CSV()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("artifacts written to %s/\n", *out)
}

// emit prints a table and writes its .txt and .csv forms.
func emit(dir, name string, t *metrics.Table) {
	fmt.Println(t.String())
	if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(t.String()), 0o644); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(t.CSV()), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "appfl-bench:", err)
	os.Exit(1)
}
