package pipeline

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// StageSpec is one parsed element of a pipeline spec string.
type StageSpec struct {
	Kind string    // clip | laplace | gaussian | topk | quantize | f16
	Args []float64 // numeric arguments, already range-checked by Parse
}

// Specs is an ordered pipeline specification — the form Config carries and
// both sides of the wire build from.
type Specs []StageSpec

// needsRNG reports whether building the stage consumes an RNG stream.
// Build splits the client RNG once per such stage, in stack order, so a
// given spec consumes a deterministic, reproducible slice of the stream.
func (s StageSpec) needsRNG() bool {
	switch s.Kind {
	case "laplace", "gaussian", "quantize":
		return true
	}
	return false
}

// Parse parses an ordered pipeline spec string such as
//
//	clip:1.0,laplace:0.5,topk:0.1
//
// Grammar: comma-separated stages, each `name` or `name:arg[:arg]`.
//
//	clip:C          gradient L2 clip bound C > 0
//	laplace:EPS     Laplace output perturbation, ε̄ = EPS > 0
//	gaussian:EPS[:DELTA]  Gaussian (ε,δ)-DP; DELTA defaults to 1e-5
//	topk:FRAC       keep the ceil(FRAC·dim) largest-|v| coordinates
//	quantize[:BITS] stochastic affine quantization; BITS defaults to 8
//	f16             IEEE-754 half-precision cast
//
// Parse validates arguments and the stage ordering (see New); every
// failure wraps ErrSpec. An empty string parses to the empty (identity)
// pipeline.
func Parse(spec string) (Specs, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out Specs
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("%w: empty stage in %q", ErrSpec, spec)
		}
		fields := strings.Split(part, ":")
		kind := strings.TrimSpace(fields[0])
		args := make([]float64, 0, len(fields)-1)
		for _, f := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("%w: stage %q has non-numeric argument %q", ErrSpec, kind, f)
			}
			args = append(args, v)
		}
		ss := StageSpec{Kind: kind, Args: args}
		if err := ss.check(); err != nil {
			return nil, err
		}
		out = append(out, ss)
	}
	// Dry-build (no RNG) so ordering violations surface at parse time,
	// where Config.Validate can report them.
	if _, err := out.Build(nil); err != nil {
		return nil, err
	}
	return out, nil
}

// arity bounds per stage kind: min and max argument counts.
var stageArity = map[string][2]int{
	"clip":     {1, 1},
	"laplace":  {1, 1},
	"gaussian": {1, 2},
	"topk":     {1, 1},
	"quantize": {0, 1},
	"f16":      {0, 0},
}

// check validates the stage name and argument count; value ranges are
// checked by the stage constructors during Build.
func (s StageSpec) check() error {
	ar, ok := stageArity[s.Kind]
	if !ok {
		return fmt.Errorf("%w: unknown stage %q (want clip, laplace, gaussian, topk, quantize, or f16)", ErrSpec, s.Kind)
	}
	if len(s.Args) < ar[0] || len(s.Args) > ar[1] {
		return fmt.Errorf("%w: stage %q takes %d–%d arguments, got %d", ErrSpec, s.Kind, ar[0], ar[1], len(s.Args))
	}
	return nil
}

// String renders the specs back to the canonical spec string.
func (s Specs) String() string {
	parts := make([]string, len(s))
	for i, ss := range s {
		p := ss.Kind
		for _, a := range ss.Args {
			p += ":" + strconv.FormatFloat(a, 'g', -1, 64)
		}
		parts[i] = p
	}
	return strings.Join(parts, ",")
}

// Build assembles the pipeline. r is the owning client's RNG: each
// randomized stage receives its own r.Split() stream, in stack order, so
// runs are reproducible. Pass r == nil to build the server-side form,
// which can only Invert (randomized stages refuse to Apply).
func (s Specs) Build(r *rng.RNG) (*Pipeline, error) {
	stages := make([]Stage, 0, len(s))
	for _, ss := range s {
		var sr *rng.RNG
		if r != nil && ss.needsRNG() {
			sr = r.Split()
		}
		var (
			st  Stage
			err error
		)
		switch ss.Kind {
		case "clip":
			st, err = NewClipL2(ss.Args[0])
		case "laplace":
			st, err = NewLaplaceNoise(ss.Args[0], sr)
		case "gaussian":
			delta := 1e-5
			if len(ss.Args) == 2 {
				delta = ss.Args[1]
			}
			st, err = NewGaussianNoise(ss.Args[0], delta, sr)
		case "topk":
			st, err = NewTopKSparsify(ss.Args[0])
		case "quantize":
			bits := 8
			if len(ss.Args) == 1 {
				if ss.Args[0] != float64(int(ss.Args[0])) {
					return nil, fmt.Errorf("%w: quantize bits must be an integer, got %v", ErrSpec, ss.Args[0])
				}
				bits = int(ss.Args[0])
			}
			st, err = NewStochasticQuantize(bits, sr)
		case "f16":
			st, err = NewFloat16Cast()
		default:
			err = fmt.Errorf("%w: unknown stage %q", ErrSpec, ss.Kind)
		}
		if err != nil {
			return nil, err
		}
		stages = append(stages, st)
	}
	return New(stages...)
}
