package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestFlagMapping feeds every appfl-server flag through the parser and
// asserts the options / core.Config field it lands in and, for the flags
// the clients share, the field of the Plan the JoinAck will carry. A flag
// added without a row here fails the test.
func TestFlagMapping(t *testing.T) {
	type probe struct {
		value string
		got   func(o *options) any
		want  any
		plan  func(p wire.Plan) any // nil: not part of the plan
		// with is what else the flag needs to validate (-journal needs fedavg).
		with []string
	}
	fedavg := []string{"-algorithm", "fedavg"}
	cases := map[string]probe{
		"addr":             {value: "10.0.0.1:7", got: func(o *options) any { return o.addr }, want: "10.0.0.1:7"},
		"clients":          {value: "7", got: func(o *options) any { return o.clients }, want: 7},
		"rounds":           {value: "9", got: func(o *options) any { return o.cfg.Rounds }, want: 9},
		"algorithm":        {value: "iceadmm", got: func(o *options) any { return o.cfg.Algorithm }, want: "iceadmm", plan: func(p wire.Plan) any { return p.Algorithm }},
		"rho":              {value: "3.5", got: func(o *options) any { return o.cfg.Rho }, want: 3.5, plan: func(p wire.Plan) any { return p.Rho }},
		"zeta":             {value: "9.25", got: func(o *options) any { return o.cfg.Zeta }, want: 9.25, plan: func(p wire.Plan) any { return p.Zeta }},
		"train":            {value: "300", got: func(o *options) any { return uint32(o.train) }, want: uint32(300), plan: func(p wire.Plan) any { return p.Train }},
		"test":             {value: "70", got: func(o *options) any { return uint32(o.test) }, want: uint32(70), plan: func(p wire.Plan) any { return p.Test }},
		"seed":             {value: "11", got: func(o *options) any { return o.cfg.Seed }, want: uint64(11), plan: func(p wire.Plan) any { return p.Seed }},
		"pipeline":         {value: "clip:1,quantize:8", got: func(o *options) any { return o.cfg.Pipeline }, want: "clip:1,quantize:8", plan: func(p wire.Plan) any { return p.Pipeline }},
		"downlink-f16":     {value: "true", got: func(o *options) any { return o.cfg.DownlinkF16 }, want: true},
		"accept-timeout":   {value: "45s", got: func(o *options) any { return o.acceptTimeout }, want: 45 * time.Second},
		"chunk":            {value: "4096", got: func(o *options) any { return uint32(o.cfg.StreamChunk) }, want: uint32(4096), plan: func(p wire.Plan) any { return p.Chunk }, with: fedavg},
		"subset":           {value: "0.25", got: func(o *options) any { return o.cfg.SubsetFrac }, want: 0.25, plan: func(p wire.Plan) any { return p.Subset }, with: fedavg},
		"journal":          {value: "/tmp/j", got: func(o *options) any { return o.journalDir }, want: "/tmp/j", with: fedavg},
		"checkpoint-every": {value: "2", got: func(o *options) any { return o.checkpointEvery }, want: 2},
		"save":             {value: "m.ckpt", got: func(o *options) any { return o.save }, want: "m.ckpt"},
		"tenants":          {value: "t.json", got: func(o *options) any { return o.tenantsPath }, want: "t.json"},
	}
	flagSet(&options{}).VisitAll(func(f *flag.Flag) {
		c, ok := cases[f.Name]
		if !ok {
			t.Errorf("-%s has no row in the mapping table", f.Name)
			return
		}
		o, err := parseFlags(append([]string{"-" + f.Name + "=" + c.value}, c.with...))
		if err != nil {
			t.Errorf("-%s %s: %v", f.Name, c.value, err)
			return
		}
		if got := c.got(o); got != c.want {
			t.Errorf("-%s %s landed as %v, want %v", f.Name, c.value, got, c.want)
		}
		if c.plan != nil {
			if got := c.plan(o.plan()); got != c.want {
				t.Errorf("-%s %s: the JoinAck plan carries %v, want %v", f.Name, c.value, got, c.want)
			}
		}
	})
	if n := len(cases); n != countFlags() {
		t.Errorf("mapping table has %d rows, the command declares %d flags", n, countFlags())
	}
}

func countFlags() (n int) {
	flagSet(&options{}).VisitAll(func(*flag.Flag) { n++ })
	return n
}

// TestFlagDefaults pins the federation a bare `appfl-server` serves and
// the plan its clients are handed.
func TestFlagDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.Plan{Algorithm: "iiadmm", Rho: 2, Zeta: 14, Seed: 1, Pipeline: "clip:1", Train: 960, Test: 240}
	if got := o.plan(); got != want {
		t.Fatalf("default plan %+v, want %+v", got, want)
	}
	if o.clients != 2 || o.cfg.Rounds != 5 || o.checkpointEvery != 10 || o.acceptTimeout != 2*time.Minute {
		t.Fatalf("defaults drifted: %+v", o)
	}
}

// TestFlagMisuse: what the parser must refuse before anything listens.
func TestFlagMisuse(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-algorithm", "sgd"}, "unknown algorithm"},
		{[]string{"-journal", "j"}, "journaling requires FedAvg"},
		{[]string{"-journal", "j", "-algorithm", "fedavg", "-chunk", "64"}, "StreamChunk"},
		{[]string{"-tenants", "t.json", "-rounds", "3"}, "does not apply in -tenants mode"},
		{[]string{"-pipeline", "bogus:1"}, "pipeline"},
		{[]string{"-clients", "0"}, "-clients must be at least 1"},
		{[]string{"-clients", "-1"}, "-clients must be at least 1"},
	} {
		if _, err := parseFlags(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want one mentioning %q", c.args, err, c.want)
		}
	}
	// Host-level flags do apply in -tenants mode.
	if _, err := parseFlags([]string{"-tenants", "t.json", "-addr", ":1", "-journal", "j", "-save", "m", "-checkpoint-every", "3", "-accept-timeout", "1s"}); err != nil {
		t.Errorf("host-level flags rejected in -tenants mode: %v", err)
	}
}

// TestTenantsFileMapping feeds every tenants.json field through the
// parser and asserts the tenant.Spec / core.Config field it lands in and
// the Plan that tenant's JoinAck will carry. A JSON field added without a
// row here fails the test.
func TestTenantsFileMapping(t *testing.T) {
	raw := `{"slots": 3, "tenants": [
		{"name": "hospital-a", "clients": 3, "rounds": 7, "algorithm": "fedavg", "rho": 3, "zeta": 5,
		 "seed": 9, "pipeline": "clip:1,laplace:5", "train": 60, "test": 12, "weight": 4},
		{}]}`
	file, err := parseTenants([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if file.Slots != 3 || len(file.Tenants) != 2 {
		t.Fatalf("parsed %+v", file)
	}
	s, err := file.Tenants[0].spec(0, true)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan := wire.Plan{Algorithm: "fedavg", Rho: 3, Zeta: 5, Seed: 9, Pipeline: "clip:1,laplace:5", Train: 60, Test: 12}
	landed := map[string][2]any{ // json field → {got, want}
		"name":      {s.Name, "hospital-a"},
		"clients":   {s.Fed.NumClients(), 3},
		"rounds":    {s.Config.Rounds, 7},
		"algorithm": {s.Config.Algorithm, "fedavg"},
		"rho":       {s.Config.Rho, 3.0},
		"zeta":      {s.Config.Zeta, 5.0},
		"seed":      {s.Config.Seed, uint64(9)},
		"pipeline":  {s.Config.Pipeline, "clip:1,laplace:5"},
		"train":     {s.Plan.Train, uint32(60)},
		"test":      {s.Fed.Test.Len(), 12},
		"weight":    {s.Weight, 4},
	}
	for field, gw := range landed {
		if gw[0] != gw[1] {
			t.Errorf("tenants.json %q landed as %v, want %v", field, gw[0], gw[1])
		}
	}
	if s.Plan != wantPlan {
		t.Errorf("tenant plan %+v, want %+v", s.Plan, wantPlan)
	}
	rt := reflect.TypeOf(tenantSpecJSON{})
	for i := 0; i < rt.NumField(); i++ {
		if tag := rt.Field(i).Tag.Get("json"); landed[tag] == [2]any{} {
			t.Errorf("tenants.json field %q has no row in the mapping table", tag)
		}
	}
	if rt.NumField() != len(landed) {
		t.Errorf("mapping table has %d rows, tenantSpecJSON %d fields", len(landed), rt.NumField())
	}

	// An empty entry takes the single-tenant flag defaults.
	d, err := file.Tenants[1].spec(1, false)
	if err != nil {
		t.Fatal(err)
	}
	flags, _ := parseFlags(nil)
	if d.Plan != flags.plan() || d.Name != "tenant-1" || d.Fed.NumClients() != flags.clients || d.Config.Rounds != flags.cfg.Rounds {
		t.Errorf("empty tenant entry = %s / %+v, want the flag defaults %+v", d.Name, d.Plan, flags.plan())
	}

	// Unknown fields and unjournalable tenants are refused.
	if _, err := parseTenants([]byte(`{"tenants": [{"chunk": 4}]}`)); err == nil {
		t.Error("unknown tenants.json field accepted")
	}
	if _, err := parseTenants([]byte(`{"slots": 1}`)); err == nil {
		t.Error("tenants file without tenants accepted")
	}
	if _, err := file.Tenants[1].spec(1, true); err == nil || !strings.Contains(err.Error(), "tenant-1") {
		t.Errorf("journaled iiadmm tenant: err = %v, want a refusal naming the tenant", err)
	}
	if _, err := (tenantSpecJSON{Name: "neg", Clients: -1}).spec(0, false); err == nil || !strings.Contains(err.Error(), "tenant neg: clients must be at least 1") {
		t.Errorf(`"clients": -1: err = %v, want a refusal naming the tenant`, err)
	}
}
