package main

import "testing"

func TestFig2Scale(t *testing.T) {
	cases := []struct {
		scale   string
		writers int
		wantErr bool
	}{
		{scale: "small", writers: 12},
		{scale: "medium", writers: 40},
		{scale: "paper", writers: 203},
		{scale: "bogus", wantErr: true},
		{scale: "", wantErr: true},
		{scale: "Small", wantErr: true},
	}
	for _, c := range cases {
		got, err := fig2Scale(c.scale)
		if (err != nil) != c.wantErr {
			t.Errorf("fig2Scale(%q) error = %v, want error %v", c.scale, err, c.wantErr)
			continue
		}
		if !c.wantErr && (got.Writers != c.writers || got.Rounds == 0 || got.TrainSize == 0 || got.TestSize == 0) {
			t.Errorf("fig2Scale(%q) = %+v, want %d writers and every size set", c.scale, got, c.writers)
		}
	}
}
