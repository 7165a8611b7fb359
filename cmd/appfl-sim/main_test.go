package main

import (
	"strings"
	"testing"
	"time"

	appfl "repro"
)

// TestParseFlags: flags land in the Config the run is handed, and the
// cohort knobs only reach a sampled run.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-algorithm", "fedavg", "-dataset", "femnist", "-clients", "3", "-rounds", "2",
		"-scheduler", "sampled", "-cohort-fraction", "0.5", "-round-timeout", "3s", "-transport", "rpc"})
	if err != nil {
		t.Fatal(err)
	}
	c := o.cfg
	if c.Algorithm != "fedavg" || o.dataset != "femnist" || o.clients != 3 || c.Rounds != 2 ||
		c.CohortFraction != 0.5 || c.CohortMin != 1 || c.RoundTimeout != 3*time.Second || o.transport != "rpc" {
		t.Fatalf("parsed %+v", o)
	}
	if o, err = parseFlags(nil); err != nil {
		t.Fatal(err)
	}
	if o.cfg.Scheduler != appfl.SchedSyncAll || o.cfg.CohortFraction != 0 || o.cfg.CohortMin != 0 || o.clients != 4 {
		t.Fatalf("defaults drifted: %+v", o)
	}
}

// TestParseFlagsMisuse: what must be refused before a federation is built
// (a non-positive -clients used to panic in the partitioner, or divide by
// zero for femnist).
func TestParseFlagsMisuse(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-clients", "0"}, "-clients must be at least 1"},
		{[]string{"-clients", "-1", "-dataset", "femnist"}, "-clients must be at least 1"},
		{[]string{"-dataset", "imagenet"}, "unknown dataset"},
	} {
		if _, err := parseFlags(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want one mentioning %q", c.args, err, c.want)
		}
	}
}
