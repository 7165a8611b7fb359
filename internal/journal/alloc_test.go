package journal

import (
	"testing"

	"repro/internal/testutil"
	"repro/internal/wire"
)

// The wide_* workloads' model: an admit or a commit of it is an 8 MB
// float64 block.
const gateDim = 1017610

// TestAppendAllocationGate: once the journal has framed its first record,
// appending a model-sized admit allocates nothing — the primal goes from
// the caller's vector to the WAL, and the journal's own buffers hold only
// the bytes around it.
//
// The window opens on a settled runtime (testutil.SettleRuntime): each 8 MB
// write blocks long enough for the runtime to act around it, and what it
// does there — start a thread, arm a timer, finish a collection — would
// now and then book an allocation the journal never made.
func TestAppendAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	j := mustOpen(t, t.TempDir())
	defer j.Close()
	j.NoSync = true
	admit := &wire.JournalRecord{Op: wire.JournalAdmit, Round: 1, ClientID: 3, NumSamples: 64, BaseVersion: 1,
		Primal: goldenVector(gateDim, 1)}
	appendOnce := func() {
		if err := j.Append(admit); err != nil {
			t.Fatal(err)
		}
	}
	appendOnce()
	testutil.SettleRuntime()
	mallocs, bytes := testutil.AllocsPer(3, appendOnce)
	t.Logf("%.1f mallocs, %.0f bytes per steady-state Append of a %d-dim admit", mallocs, bytes, gateDim)
	if mallocs != 0 || bytes != 0 {
		t.Fatalf("a steady-state Append of a %d-dim admit made %.1f allocations totalling %.0f bytes; the gate is none",
			gateDim, mallocs, bytes)
	}
}

// TestCheckpointAllocationGate: a checkpoint of the model allocates what
// creating, renaming and syncing its files costs — never a buffer the
// size of the model.
func TestCheckpointAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	j := mustOpen(t, t.TempDir())
	defer j.Close()
	j.NoSync = true
	cp := &wire.JournalCheckpoint{NextRound: 2, Version: 1, Weights: goldenVector(gateDim, 2),
		DepartedUntil: make([]uint32, 4), BenchedUntil: make([]uint32, 4), Strikes: make([]uint32, 4), AwaitRejoin: make([]uint32, 4)}
	checkpoint := func() {
		if err := j.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint()
	mallocs, bytes := testutil.AllocsPer(3, checkpoint)
	t.Logf("%.1f mallocs, %.0f bytes per Checkpoint of a %d-dim model", mallocs, bytes, gateDim)
	if bytes >= 64<<10 {
		t.Fatalf("a Checkpoint of a %d-dim model allocated %.0f bytes; the gate is 64 KiB", gateDim, bytes)
	}
}
