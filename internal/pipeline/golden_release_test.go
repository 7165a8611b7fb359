package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The golden fixture pins what the private/compressed path RELEASES across
// rewrites of its inner loops: testdata/golden_release.txt holds an FNV-64a
// hash of every field a released payload carries (Enc, Dim, Scale, Offset,
// Bits, Codes or Dense) for three consecutive releases of one pipeline, so
// the noise draws, the stochastic-rounding draws, the codes AND the state
// each RNG stream is left in are all held. It was computed at the commit
// BEFORE the block samplers, the integer half-float codec and the
// branch-free quantizer landed. This file uses only the API that commit
// already had, so it can be dropped into that older tree to regenerate the
// fixture:
//
//	PIPELINE_GOLDEN_WRITE=1 go test ./internal/pipeline -run TestWriteGoldenRelease
//
// Regenerating from the current tree would only pin the loops to
// themselves.

const goldenReleaseFile = "testdata/golden_release.txt"

type goldenReleaseCase struct {
	name      string
	spec      string
	objective bool
}

var goldenReleaseCases = []goldenReleaseCase{
	{name: "laplace5_q8", spec: "clip:1,laplace:5,quantize:8"}, // wide_dp_q8's uplink
	{name: "gauss1_q12", spec: "clip:1,gaussian:1:1e-5,quantize:12"},
	{name: "laplace05_f16", spec: "clip:1,laplace:0.5,f16"},
	{name: "q1", spec: "quantize:1"},
	{name: "objective_laplace5", spec: "clip:1,laplace:5", objective: true},
}

// 1 017 610 is the wide_* workloads' model; 4097 straddles a kernel block.
var goldenReleaseDims = []int{0, 1, 7, 4097, 1017610}

const goldenReleaseSens = 0.02 // FedAvg's 2·C·η at C = 1, η = 0.01

// goldenInput fills v with a fixed pseudo-random vector in roughly
// (-0.08, 0.08) from its own generator, so the inputs do not move with the
// samplers under test. A few coordinates are pinned to values the loops
// special-case: ±0, a half subnormal, a tie.
func goldenInput(v []float64, release int) {
	s := uint64(0x9e3779b97f4a7c15) * uint64(release+1)
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = (float64(s>>11)/(1<<53) - 0.5) * 0.16
	}
	if len(v) == 0 {
		return
	}
	for i, x := range []float64{0, math.Copysign(0, -1), 0x1p-20, -0x1p-15, 0.0625, v[0]} {
		if j := 3 + 5*i; j < len(v) {
			v[j] = x
		}
	}
}

func hashFloats(h interface{ Write([]byte) (int, error) }, v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// goldenReleaseHashes runs three releases of one freshly built pipeline at
// dim and returns one hash per release. In objective mode the round's
// noise vector is observed through GradHook before the release.
func goldenReleaseHashes(t *testing.T, c goldenReleaseCase, dim int) []uint64 {
	t.Helper()
	specs, err := Parse(c.spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := specs.Build(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	p.SetObjective(c.objective)
	hashes := make([]uint64, 0, 3)
	v := make([]float64, dim)
	g := make([]float64, dim)
	for release := 0; release < 3; release++ {
		h := fnv.New64a()
		goldenInput(v, release)
		p.BeginRound(dim, goldenReleaseSens)
		if c.objective {
			goldenInput(g, release+10)
			p.GradHook(g)
			hashFloats(h, g)
		}
		u := NewDense(v)
		if err := p.Apply(u, goldenReleaseSens); err != nil {
			t.Fatalf("%s dim %d release %d: %v", c.name, dim, release, err)
		}
		h.Write([]byte{byte(u.Enc), u.Bits})
		hashFloats(h, []float64{float64(u.Dim), u.Scale, u.Offset})
		h.Write(u.Codes)
		hashFloats(h, u.Dense)
		hashes = append(hashes, h.Sum64())
	}
	return hashes
}

func goldenReleaseLines(t *testing.T) []string {
	var lines []string
	for _, c := range goldenReleaseCases {
		for _, dim := range goldenReleaseDims {
			for release, h := range goldenReleaseHashes(t, c, dim) {
				lines = append(lines, fmt.Sprintf("%s/dim=%d/release=%d %016x", c.name, dim, release, h))
			}
		}
	}
	return lines
}

func TestWriteGoldenRelease(t *testing.T) {
	if os.Getenv("PIPELINE_GOLDEN_WRITE") == "" {
		t.Skip("set PIPELINE_GOLDEN_WRITE=1 (in the parent tree) to regenerate " + goldenReleaseFile)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenReleaseFile, []byte(strings.Join(goldenReleaseLines(t), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenRelease: every release of the fixture's pipelines hashes to
// what the parent tree released — same draws, same codes, same generator
// state afterwards.
func TestGoldenRelease(t *testing.T) {
	raw, err := os.ReadFile(goldenReleaseFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := goldenReleaseLines(t)
	if len(got) != len(want) {
		t.Fatalf("fixture has %d lines, this tree produces %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("release differs from the parent tree:\n  got  %s\n  want %s", got[i], want[i])
		}
	}
}
