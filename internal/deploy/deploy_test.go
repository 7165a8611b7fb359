package deploy

import (
	"math"
	"testing"

	"repro/internal/wire"
)

// TestClientConfigEpsilon: a client's own budget composes clip:1,laplace:ε
// over the default stack, however the plan spells it, leaves every stack
// alone when it is 0 or +Inf, and is refused over any other stack or when
// it is out of range.
func TestClientConfigEpsilon(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		pipe    string
		eps     float64
		want    string
		wantErr bool
	}{
		{pipe: "", eps: 0, want: ""},
		{pipe: "", eps: inf, want: ""},
		{pipe: "clip:1", eps: 0, want: "clip:1"},
		{pipe: "clip:1", eps: inf, want: "clip:1"},
		{pipe: "clip:1,quantize:8", eps: 0, want: "clip:1,quantize:8"},
		{pipe: "", eps: 5, want: "clip:1,laplace:5"},
		{pipe: "clip:1", eps: 5, want: "clip:1,laplace:5"},
		{pipe: "clip:1,quantize:8", eps: 5, wantErr: true},
		{pipe: "", eps: -1, wantErr: true},
		{pipe: "", eps: math.NaN(), wantErr: true},
		{pipe: "clip:1", eps: math.Inf(-1), wantErr: true},
	} {
		plan := wire.Plan{Algorithm: "fedavg", Rho: 2, Zeta: 14, Seed: 3, Pipeline: c.pipe, Train: 64, Test: 16}
		cfg, err := ClientConfig(plan, c.eps)
		if (err != nil) != c.wantErr {
			t.Errorf("pipeline %q, eps %v: err = %v, want error %v", c.pipe, c.eps, err, c.wantErr)
			continue
		}
		if c.wantErr {
			continue
		}
		if cfg.Pipeline != c.want {
			t.Errorf("pipeline %q, eps %v: stack %q, want %q", c.pipe, c.eps, cfg.Pipeline, c.want)
		}
		if err := cfg.WithDefaults().Validate(); err != nil {
			t.Errorf("pipeline %q, eps %v: %v", c.pipe, c.eps, err)
		}
	}
}
