package comm_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/testutil/chunktest"
)

// TestStreamPushAheadIsBounded: over a ChunkPipe, a client streaming
// while the gather waits on a silent cohort member gets at most the pipe's
// queue of 4 chunks ahead, and the round completes bit for bit once the
// silent member streams.
func TestStreamPushAheadIsBounded(t *testing.T) {
	pipe := comm.NewChunkPipe(2)
	chunktest.PushAhead(t, pipe, [2]comm.ChunkSender{pipe.Client(0), pipe.Client(1)}, 1, 20*64, 64, 4)
}
