package bench

import (
	"strings"
	"testing"
)

// TestRenderDiffGomaxprocsWarning pins the diff tool's document: the
// GOMAXPROCS-mismatch warning appears exactly when the two reports
// disagree on core count, skipped rows stay out of the verdict, and the
// verdict line flips with the regression count.
func TestRenderDiffGomaxprocsWarning(t *testing.T) {
	base := &Report{Version: ReportVersion, GoMaxProcs: 4, Metrics: []Metric{
		{Name: "agg_fold_speedup", Value: 2.0, Unit: "x", HigherIsBetter: true, Gated: true, ParallelDependent: true},
		{Name: "pipe_f16_reduction", Value: 4.0, Unit: "x", HigherIsBetter: true, Gated: true},
	}}
	cur := &Report{Version: ReportVersion, GoMaxProcs: 1, Metrics: []Metric{
		{Name: "agg_fold_speedup", Value: 0.8, Unit: "x", HigherIsBetter: true, Gated: true, ParallelDependent: true},
		{Name: "pipe_f16_reduction", Value: 4.0, Unit: "x", HigherIsBetter: true, Gated: true},
	}}

	out, n := RenderDiff(base, cur, 0.2, false, "BENCH_baseline.json")
	if n != 0 {
		t.Fatalf("parallel-dependent drop gated despite procs mismatch: %d regressions\n%s", n, out)
	}
	if !strings.Contains(out, "⚠ baseline measured at GOMAXPROCS=4, current at GOMAXPROCS=1") {
		t.Errorf("missing mismatch warning:\n%s", out)
	}
	if !strings.Contains(out, "⚠ skipped (gomaxprocs mismatch)") {
		t.Errorf("skipped row not annotated:\n%s", out)
	}
	if !strings.Contains(out, "✅ no gated metric regressed more than 20% vs BENCH_baseline.json") {
		t.Errorf("missing pass verdict:\n%s", out)
	}

	// Matching core counts: no warning, and the same drop now fails.
	cur.GoMaxProcs = 4
	out, n = RenderDiff(base, cur, 0.2, false, "BENCH_baseline.json")
	if n != 1 {
		t.Fatalf("want 1 regression at matching procs, got %d\n%s", n, out)
	}
	if strings.Contains(out, "⚠ baseline measured at GOMAXPROCS") {
		t.Errorf("spurious mismatch warning at matching procs:\n%s", out)
	}
	if !strings.Contains(out, "❌ 1 gated metric(s) regressed more than 20% vs BENCH_baseline.json") {
		t.Errorf("missing fail verdict:\n%s", out)
	}
}
