package comm

import (
	"sync"

	"repro/internal/wire"
)

// Buffer ownership on the gather path. A transport decodes every incoming
// LocalUpdate and ModelChunk into a message taken from the pools below,
// whose Unmarshal reuses the vector capacity the message kept from its
// previous life. What a Gather*/RecvChunkFrom call returns belongs to the
// caller until the caller releases it; a caller that never releases only
// leaves the messages to the garbage collector, so forgetting is slower,
// never wrong. Releasing while anything still reads the message is the one
// way to get this wrong, which is why only the consumer that folded a
// message releases it: the round loops after Aggregate and the journal
// commit, StreamGather after a chunk's fold and ack.

var (
	updatePool = sync.Pool{New: func() any { return new(wire.LocalUpdate) }}
	chunkPool  = sync.Pool{New: func() any { return new(wire.ModelChunk) }}
)

// NewUpdate returns a LocalUpdate for a transport to Unmarshal into.
func NewUpdate() *wire.LocalUpdate { return updatePool.Get().(*wire.LocalUpdate) }

// ReleaseUpdate returns a gathered update for reuse. It is emptied first,
// so a reference that outlived the release reads an update without a
// vector — which every aggregator rejects — instead of another client's
// parameters.
func ReleaseUpdate(u *wire.LocalUpdate) {
	if u != nil {
		u.Reset()
		updatePool.Put(u)
	}
}

// ReleaseUpdates releases every update of a batch and clears its entries.
func ReleaseUpdates(batch []*wire.LocalUpdate) {
	for i, u := range batch {
		ReleaseUpdate(u)
		batch[i] = nil
	}
}

// NewChunk returns a ModelChunk for a transport to Unmarshal into.
func NewChunk() *wire.ModelChunk { return chunkPool.Get().(*wire.ModelChunk) }

// ReleaseChunk returns a received chunk for reuse; see ReleaseUpdate.
func ReleaseChunk(c *wire.ModelChunk) {
	if c != nil {
		c.Reset()
		chunkPool.Put(c)
	}
}
