package main

import (
	"math"
	"testing"
)

func TestEpsilonFromFlag(t *testing.T) {
	cases := []struct {
		in      float64
		want    float64
		wantErr bool
	}{
		{in: 0, want: math.Inf(1)},
		{in: 0.5, want: 0.5},
		{in: 10, want: 10},
		{in: math.Inf(1), want: math.Inf(1)},
		{in: -1, wantErr: true},
		{in: -1e-9, wantErr: true},
		{in: math.Inf(-1), wantErr: true},
		{in: math.NaN(), wantErr: true},
	}
	for _, c := range cases {
		got, err := epsilonFromFlag(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("epsilonFromFlag(%v) error = %v, want error %v", c.in, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("epsilonFromFlag(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
