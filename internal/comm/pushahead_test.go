package comm_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/testutil/chunktest"
)

// TestStreamPushAheadIsBounded: over an mpi world, a client streaming
// while the gather waits on a silent cohort member gets at most its
// mailbox (8), the inbox's chunk queue (4) and the one chunk its reply
// receiver holds ahead, and the round completes bit for bit once the
// silent member streams.
func TestStreamPushAheadIsBounded(t *testing.T) {
	srv, clients := world(t, 2)
	chunktest.PushAhead(t, srv, [2]comm.ChunkSender{clients[0], clients[1]}, 1, 30*64, 64, 8+4+1)
}
