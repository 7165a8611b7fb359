package core

import (
	"math"
	"testing"
)

func TestAdaptiveRhoIncreasesOnPrimalDominance(t *testing.T) {
	a := NewAdaptiveRho(1)
	rho := a.Step(100, 1)
	if rho != 2 {
		t.Fatalf("rho %v, want doubled", rho)
	}
}

func TestAdaptiveRhoDecreasesOnDualDominance(t *testing.T) {
	a := NewAdaptiveRho(1)
	rho := a.Step(1, 100)
	if rho != 0.5 {
		t.Fatalf("rho %v, want halved", rho)
	}
}

func TestAdaptiveRhoStableWhenBalanced(t *testing.T) {
	a := NewAdaptiveRho(3)
	if rho := a.Step(5, 5); rho != 3 {
		t.Fatalf("rho %v, want unchanged", rho)
	}
}

func TestAdaptiveRhoClamps(t *testing.T) {
	a := NewAdaptiveRho(1)
	for i := 0; i < 100; i++ {
		a.Step(1e12, 1)
	}
	if a.Rho > a.MaxRho {
		t.Fatalf("rho %v exceeded clamp %v", a.Rho, a.MaxRho)
	}
	for i := 0; i < 200; i++ {
		a.Step(1, 1e12)
	}
	if a.Rho < a.MinRho {
		t.Fatalf("rho %v under clamp %v", a.Rho, a.MinRho)
	}
}

func TestResiduals(t *testing.T) {
	w := []float64{1, 1}
	wPrev := []float64{0, 0}
	primals := [][]float64{{1, 1}, {1, 3}}
	p, d := Residuals(w, wPrev, primals, 2)
	// primal = sqrt(0 + 4) = 2; dual = 2 * sqrt(2) * sqrt(2) = 4.
	if math.Abs(p-2) > 1e-12 || math.Abs(d-4) > 1e-12 {
		t.Fatalf("residuals %v %v, want 2 4", p, d)
	}
}
