package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// The stage loops over the wide_* workloads' model (1 017 610 parameters),
// each next to the parent's loop (ref/, ref_test.go), in Melem/s.

const benchDim = 1017610

func benchVec() []float64 {
	v := make([]float64, benchDim)
	goldenInput(v, 0)
	return v
}

func reportMelems(b *testing.B) {
	b.ReportMetric(float64(benchDim)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
}

func BenchmarkStochasticQuantize(b *testing.B) {
	v := benchVec()
	for _, bits := range []int{8, 12} {
		name := fmt.Sprintf("q%d", bits)
		b.Run(name, func(b *testing.B) {
			s, _ := NewStochasticQuantize(bits, rng.New(1))
			for i := 0; i < b.N; i++ {
				if err := s.Apply(NewDense(v), 0); err != nil {
					b.Fatal(err)
				}
			}
			reportMelems(b)
		})
		b.Run("ref/"+name, func(b *testing.B) {
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				refQuantize(NewDense(v), uint8(bits), r)
			}
			reportMelems(b)
		})
	}
}

func BenchmarkTopKSelect(b *testing.B) {
	v := benchVec()
	b.Run("select", func(b *testing.B) {
		s, _ := NewTopKSparsify(0.1)
		for i := 0; i < b.N; i++ {
			if err := s.Apply(NewDense(v), 0); err != nil {
				b.Fatal(err)
			}
		}
		reportMelems(b)
	})
	b.Run("ref/sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refTopK(NewDense(v), 0.1)
		}
		reportMelems(b)
	})
}
