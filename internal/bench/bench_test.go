package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyOpts keeps the suite fast enough for the unit-test tier: small
// vectors, microsecond probe budgets, millisecond straggler.
var tinyOpts = Options{
	Dim:            1 << 14,
	Workers:        2,
	MinProbeTime:   time.Millisecond,
	StragglerDelay: 2 * time.Millisecond,
	Rounds:         2,
}

// TestSuiteEmitsNamedMetrics: the default suite produces the documented
// metric set (≥ 6 metrics, at least one gated, units filled in) and the
// report round-trips through BENCH.json.
func TestSuiteEmitsNamedMetrics(t *testing.T) {
	rep, err := NewSuite(tinyOpts).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) < 6 {
		t.Fatalf("suite emitted %d metrics, want >= 6", len(rep.Metrics))
	}
	gated := 0
	for _, m := range rep.Metrics {
		if m.Name == "" || m.Unit == "" {
			t.Fatalf("metric missing name/unit: %+v", m)
		}
		if m.Value <= 0 {
			t.Fatalf("metric %s has non-positive value %v", m.Name, m.Value)
		}
		if m.Gated {
			gated++
		}
	}
	if gated == 0 {
		t.Fatal("no gated metrics: the CI gate would be vacuous")
	}
	for _, name := range []string{
		"agg_fold_speedup", "fedavg_agg_speedup", "codec_encode", "codec_decode", "round_latency_sync",
		"kernel_foldk_k2", "kernel_foldk_k8", "kernel_foldk_k32",
		"kernel_foldk_speedup", "kernel_fused_speedup",
		"journal_append_ns", "recovery_replay_ms",
	} {
		if _, ok := rep.Lookup(name); !ok {
			t.Errorf("suite is missing headline metric %q", name)
		}
	}
	for _, name := range []string{"agg_fold_speedup", "fedavg_agg_speedup"} {
		if m, ok := rep.Lookup(name); ok && !m.ParallelDependent {
			t.Errorf("%s not marked parallel-dependent: a gomaxprocs mismatch would gate it", name)
		}
	}
	for _, name := range []string{"kernel_foldk_speedup", "kernel_fused_speedup"} {
		if m, ok := rep.Lookup(name); ok && m.ParallelDependent {
			t.Errorf("%s marked parallel-dependent: single-threaded ratios gate at any core count", name)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != len(rep.Metrics) || back.Version != ReportVersion {
		t.Fatalf("round-trip mismatch: %d metrics v%d, want %d v%d",
			len(back.Metrics), back.Version, len(rep.Metrics), ReportVersion)
	}
}

// TestCompareGate exercises the regression rules: within-tolerance noise
// passes, a gated drop beyond tolerance fails, an ungated drop does not,
// lower-is-better metrics gate in the opposite direction, and a metric
// that disappears from the current report always fails.
func TestCompareGate(t *testing.T) {
	base := &Report{Version: ReportVersion, Metrics: []Metric{
		{Name: "speedup", Value: 2.0, Unit: "x", HigherIsBetter: true, Gated: true},
		{Name: "throughput", Value: 100, Unit: "MB/s", HigherIsBetter: true},
		{Name: "latency", Value: 10, Unit: "ms", HigherIsBetter: false, Gated: true},
		{Name: "dropped", Value: 1, Unit: "x", HigherIsBetter: true, Gated: true},
	}}
	cur := &Report{Version: ReportVersion, Metrics: []Metric{
		{Name: "speedup", Value: 1.9, Unit: "x", HigherIsBetter: true, Gated: true},  // -5%: fine
		{Name: "throughput", Value: 10, Unit: "MB/s", HigherIsBetter: true},          // -90% but ungated
		{Name: "latency", Value: 13, Unit: "ms", HigherIsBetter: false, Gated: true}, // +30%: regression
		{Name: "fresh", Value: 5, Unit: "x", HigherIsBetter: true},                   // new: never gates
	}}
	deltas, n := Compare(base, cur, 0.2, false)
	if n != 2 {
		t.Fatalf("want 2 regressions (latency, dropped), got %d: %+v", n, deltas)
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if byName["speedup"].Regressed {
		t.Error("within-tolerance speedup flagged")
	}
	if byName["throughput"].Regressed {
		t.Error("ungated throughput flagged")
	}
	if !byName["latency"].Regressed {
		t.Error("latency regression missed")
	}
	if d := byName["dropped"]; !d.Regressed || !d.Missing {
		t.Errorf("missing metric not flagged: %+v", d)
	}
	if byName["fresh"].Regressed {
		t.Error("new metric flagged")
	}

	// With -all, the ungated throughput drop becomes a regression too.
	if _, n := Compare(base, cur, 0.2, true); n != 3 {
		t.Fatalf("want 3 regressions under -all, got %d", n)
	}

	// Markdown renders one row per delta plus the two header lines.
	md := Markdown(deltas)
	lines := strings.Split(strings.TrimSuffix(md, "\n"), "\n")
	if len(lines) != len(deltas)+2 {
		t.Fatalf("markdown has %d lines, want %d", len(lines), len(deltas)+2)
	}
}

// TestCompareSkipsParallelDependentOnProcsMismatch: a parallel-dependent
// gated metric must not gate when baseline and current were measured at
// different GOMAXPROCS — but it must still gate on a matching machine,
// still fail if the probe vanishes, and machine-independent gated
// metrics must keep gating either way.
func TestCompareSkipsParallelDependentOnProcsMismatch(t *testing.T) {
	base := &Report{Version: ReportVersion, GoMaxProcs: 4, Metrics: []Metric{
		{Name: "agg_fold_speedup", Value: 2.0, Unit: "x", HigherIsBetter: true, Gated: true, ParallelDependent: true},
		{Name: "pipe_f16_reduction", Value: 4.0, Unit: "x", HigherIsBetter: true, Gated: true},
		{Name: "gone_speedup", Value: 1.5, Unit: "x", HigherIsBetter: true, Gated: true, ParallelDependent: true},
	}}
	cur := &Report{Version: ReportVersion, GoMaxProcs: 1, Metrics: []Metric{
		{Name: "agg_fold_speedup", Value: 0.9, Unit: "x", HigherIsBetter: true, Gated: true, ParallelDependent: true}, // -55% but skipped
		{Name: "pipe_f16_reduction", Value: 2.0, Unit: "x", HigherIsBetter: true, Gated: true},                        // -50%: still gates
	}}
	deltas, n := Compare(base, cur, 0.2, false)
	if n != 2 {
		t.Fatalf("want 2 regressions (pipe_f16_reduction, gone_speedup), got %d: %+v", n, deltas)
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["agg_fold_speedup"]; !d.Skipped || d.Regressed || d.Gated {
		t.Errorf("parallel-dependent metric not skipped under procs mismatch: %+v", d)
	}
	if d := byName["pipe_f16_reduction"]; d.Skipped || !d.Regressed {
		t.Errorf("machine-independent metric mishandled under procs mismatch: %+v", d)
	}
	if d := byName["gone_speedup"]; !d.Missing || !d.Regressed {
		t.Errorf("missing probe must fail even when skipped: %+v", d)
	}
	if !strings.Contains(Markdown(deltas), "⚠ skipped (gomaxprocs mismatch)") {
		t.Error("markdown does not annotate the skipped row")
	}

	// Same GOMAXPROCS: the -55% drop gates again.
	cur.GoMaxProcs = 4
	if _, n := Compare(base, cur, 0.2, false); n != 3 {
		t.Fatalf("want 3 regressions at matching procs, got %d", n)
	}
}
