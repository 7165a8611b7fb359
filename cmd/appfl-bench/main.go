// Command appfl-bench regenerates every table and figure of the paper's
// evaluation section and writes the results as plain text and CSV under a
// results directory.
//
// Usage:
//
//	appfl-bench [-only table1|fig2|fig3|fig4|hetero|commvol|scenarios|all]
//	            [-out results] [-scale small|medium|paper]
//
// The -scale flag trades fidelity for time in the training-based Figure 2
// sweep: "small" finishes in about a minute on a laptop, "paper" uses the
// full geometry (203 FEMNIST writers, 50 rounds) and runs for hours.
// Unknown -only and -scale values are rejected before anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// artifacts is the closed set of -only values; "all" runs every one.
var artifacts = []string{"table1", "fig2", "fig3", "fig4", "hetero", "commvol", "scenarios"}

// fig2Scale maps a -scale value to the Figure 2 sweep's geometry.
func fig2Scale(scale string) (experiments.Fig2Options, error) {
	switch scale {
	case "small":
		return experiments.Fig2Options{Rounds: 6, TrainSize: 384, TestSize: 128, Writers: 12}, nil
	case "medium":
		return experiments.Fig2Options{Rounds: 15, TrainSize: 1200, TestSize: 400, Writers: 40}, nil
	case "paper":
		return experiments.Fig2Options{Rounds: 50, TrainSize: 12000, TestSize: 2000, Writers: 203}, nil
	}
	return experiments.Fig2Options{}, fmt.Errorf("unknown -scale %q; valid: small, medium, paper", scale)
}

func main() {
	only := flag.String("only", "all", "artifact to regenerate: "+strings.Join(artifacts, "|")+"|all")
	out := flag.String("out", "results", "output directory")
	scale := flag.String("scale", "small", "fig2 scale: small|medium|paper")
	flag.Parse()

	if *only != "all" && !slices.Contains(artifacts, *only) {
		fatal(fmt.Errorf("unknown -only artifact %q; valid: %s, all", *only, strings.Join(artifacts, ", ")))
	}
	fig2Opts, err := fig2Scale(*scale)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	run := func(name string) bool { return *only == "all" || *only == name }

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
		fmt.Printf("fig2: running %s-scale sweep (this trains 48 federated models)...\n", *scale)
		pts, t, err := experiments.Fig2(fig2Opts)
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
