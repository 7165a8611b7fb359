package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/wire"
)

// probeReps is how often every standalone probe repeats; the harness
// reports the median of the repetitions.
const probeReps = 5

// secondsOf times one call.
func secondsOf(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// decodeCapture decodes fresh messages from the captured wire bytes, so
// every probe repetition consumes messages nothing else has touched.
func decodeCapture(cp *capture) (*wire.GlobalModel, []*wire.LocalUpdate, error) {
	gm := &wire.GlobalModel{}
	if err := gm.Unmarshal(wire.NewDecoder(cp.global)); err != nil {
		return nil, nil, err
	}
	ups := make([]*wire.LocalUpdate, len(cp.updates))
	for i, b := range cp.updates {
		ups[i] = &wire.LocalUpdate{}
		if err := ups[i].Unmarshal(wire.NewDecoder(b)); err != nil {
			return nil, nil, err
		}
	}
	return gm, ups, nil
}

// runProbes calls each layer's public functions on the capture round's
// real messages, outside any federation, and appends one sample per
// repetition to layers. It is the part of the per-layer table that spans
// cannot give: a layer's cost with nothing else running.
func runProbes(w workload, f federation, cp *capture, layers map[string][]float64, outDir string) error {
	if cp.global == nil || len(cp.updates) == 0 {
		return fmt.Errorf("round %d was not captured", cp.round)
	}
	cfg := f.cfg.WithDefaults()
	gm, _, err := decodeCapture(cp)
	if err != nil {
		return err
	}
	if err := core.DecodeGlobal(gm); err != nil {
		return err
	}
	weights := gm.Weights // dense global model of the capture round
	dim := len(weights)
	add := func(name string, v float64) { layers[name] = append(layers[name], v) }

	wireBytes := len(cp.global)
	for _, b := range cp.updates {
		wireBytes += len(b)
	}
	wireMB := float64(wireBytes) / 1e6
	serverPipe, err := core.NewServerPipeline(cfg)
	if err != nil {
		return err
	}
	clientPipe, err := core.NewClientPipeline(cfg, rng.New(cfg.Seed))
	if err != nil {
		return err
	}

	for rep := 0; rep < probeReps; rep++ {
		// wire: Unmarshal then Marshal of the round's GlobalModel and
		// LocalUpdates, as MB of wire bytes per second.
		var g *wire.GlobalModel
		var ups []*wire.LocalUpdate
		sec, err := secondsOf(func() (err error) { g, ups, err = decodeCapture(cp); return err })
		if err != nil {
			return err
		}
		add("wire_decode_mb_s", wireMB/sec)
		enc := wire.NewEncoder(make([]byte, 0, len(cp.global)))
		sec, _ = secondsOf(func() error {
			g.Marshal(enc)
			for _, u := range ups {
				enc.Reset()
				u.Marshal(enc)
			}
			return nil
		})
		add("wire_encode_mb_s", wireMB/sec)

		// pipeline: every stage's Apply on a dense vector of the model's
		// size, then every stage's Invert in reverse order.
		u := pipeline.NewDense(append([]float64(nil), weights...))
		applyTotal, invertTotal := 0.0, 0.0
		for _, st := range clientPipe.Stages() {
			sec, err := secondsOf(func() error { return st.Apply(u, 1) })
			if err != nil {
				return fmt.Errorf("apply %s: %w", st.Name(), err)
			}
			add("pipeline_apply_s."+st.Name(), sec)
			applyTotal += sec
		}
		inv := serverPipe.Stages()
		for i := len(inv) - 1; i >= 0; i-- {
			sec, err := secondsOf(func() error { return inv[i].Invert(u) })
			if err != nil {
				return fmt.Errorf("invert %s: %w", inv[i].Name(), err)
			}
			add("pipeline_invert_s."+inv[i].Name(), sec)
			invertTotal += sec
		}
		add("pipeline_apply_s", applyTotal)
		add("pipeline_invert_s", invertTotal)

		// core aggregator: decode + fold of the captured batch into a
		// fresh aggregator, the way the round loop does it.
		agg, err := core.NewAggregator(cfg, weights, numClients)
		if err != nil {
			return err
		}
		if w.stream {
			sec, err = probeStreamFold(cp, agg, dim, cfg.StreamChunk)
		} else {
			sec, err = probeFold(ups, agg, serverPipe, dim, !w.journal)
		}
		if c, ok := agg.(interface{ Close() error }); ok {
			_ = c.Close() // a default-config aggregator holds no workers; nothing to report
		}
		if err != nil {
			return err
		}
		add("fold_melem_s", float64(numClients*dim)/1e6/sec)

		// core server tail: one evaluation of the global model.
		model := f.factory()
		sec, _ = secondsOf(func() error { core.EvaluateWeights(model, weights, f.fed.Test, 256); return nil })
		add("eval_s", sec)
	}
	if w.journal {
		return probeJournal(cp, serverPipe, weights, layers, outDir)
	}
	return nil
}

// probeFold times DecodeUpdates (or its fused form, when the stack and the
// aggregator allow it and the run is not journaled) plus Aggregate.
func probeFold(ups []*wire.LocalUpdate, agg core.Aggregator, inv *pipeline.Pipeline, dim int, mayFuse bool) (float64, error) {
	var fs pipeline.FusedStage
	fused := false
	if mayFuse {
		fs, fused = core.EnableFusedFold(agg, inv)
	}
	return secondsOf(func() error {
		var err error
		if fused {
			err = core.DecodeUpdatesFused(ups, fs, dim)
		} else {
			err = core.DecodeUpdates(ups, inv, dim, 0)
		}
		if err != nil {
			return err
		}
		return agg.Aggregate(ups)
	})
}

// probeStreamFold times the streamed fold of the captured chunks through a
// StreamSession: Begin, one FoldPayloads per chunk, Finish.
func probeStreamFold(cp *capture, agg core.Aggregator, dim, chunk int) (float64, error) {
	payloads := make([][]*wire.Payload, len(cp.chunks))
	for c, row := range cp.chunks {
		for _, b := range row {
			p := &wire.Payload{}
			if err := p.Unmarshal(wire.NewDecoder(b)); err != nil {
				return 0, err
			}
			payloads[c] = append(payloads[c], p)
		}
	}
	ss, err := core.NewStreamSession(agg)
	if err != nil {
		return 0, err
	}
	return secondsOf(func() error {
		if err := ss.Begin(cp.samples); err != nil {
			return err
		}
		for c := range payloads {
			lo, hi := wire.ChunkRange(dim, chunk, c)
			if err := ss.FoldPayloads(lo, hi, payloads[c]); err != nil {
				return err
			}
		}
		return ss.Finish()
	})
}

// probeJournal times one round's journal traffic — a round start, one
// admit per client with its dense primal, a commit with the model — and a
// checkpoint, on a fresh journal in outDir: first as the gated run journals
// (no per-append fsync: the program's encode, CRC and write), then with
// fsync on, which adds this machine's disk (diagnostic only).
func probeJournal(cp *capture, inv *pipeline.Pipeline, weights []float64, layers map[string][]float64, outDir string) error {
	_, ups, err := decodeCapture(cp)
	if err != nil {
		return err
	}
	if err := core.DecodeUpdates(ups, inv, len(weights), 0); err != nil {
		return err
	}
	recs := []*wire.JournalRecord{{Op: wire.JournalRoundStart, Round: 1, Cohort: []uint32{0, 1, 2, 3}}}
	for _, u := range ups {
		recs = append(recs, &wire.JournalRecord{Op: wire.JournalAdmit, Round: 1, ClientID: u.ClientID,
			NumSamples: u.NumSamples, BaseVersion: u.BaseVersion, Primal: u.Primal})
	}
	recs = append(recs, &wire.JournalRecord{Op: wire.JournalCommit, Round: 1, Version: 1, Weights: weights})

	dir := filepath.Join(outDir, fmt.Sprintf("probe-journal-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	round := func(noSync bool, appendName string) error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		j, err := journal.Open(dir)
		if err != nil {
			return err
		}
		defer j.Close()
		j.NoSync = noSync
		sec, err := secondsOf(func() error {
			for _, r := range recs {
				if err := j.Append(r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		layers[appendName] = append(layers[appendName], sec)
		if !noSync {
			return nil
		}
		if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
			layers["journal_mb_per_round"] = append(layers["journal_mb_per_round"], float64(fi.Size())/1e6)
		}
		sec, err = secondsOf(func() error {
			return j.Checkpoint(&wire.JournalCheckpoint{NextRound: 2, Version: 1, Weights: weights})
		})
		layers["journal_checkpoint_s"] = append(layers["journal_checkpoint_s"], sec)
		return err
	}
	for rep := 0; rep < probeReps; rep++ {
		if err := round(true, "journal_append_s"); err != nil {
			return err
		}
		if err := round(false, "journal_fsync_disk_s"); err != nil {
			return err
		}
	}
	return nil
}
