package pubsub

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// Chunk streaming over the broker: each client owns a chunk uplink topic
// (fl/chunk/<id>) and a chunk-ack downlink topic (fl/chunkack/<id>), so
// the per-client FIFO ordering of subscriptions gives StreamGather its
// ordered per-client demux. Chunks bypass the update topic and the
// obligation ledger, QoS-0 style; a slim LocalUpdate published after the
// stream settles the round's obligation.

// Topic names of the chunk-streaming path.
const (
	TopicChunk    = "fl/chunk"
	TopicChunkAck = "fl/chunkack"
)

// ChunkTopic returns the topic carrying client id's streamed chunks.
func ChunkTopic(id int) string { return fmt.Sprintf("%s/%d", TopicChunk, id) }

// ChunkAckTopic returns the topic carrying client id's chunk acks.
func ChunkAckTopic(id int) string { return fmt.Sprintf("%s/%d", TopicChunkAck, id) }

// SendChunkAck publishes a folded stream's ack to its sender's ack topic.
func (s *ServerTransport) SendChunkAck(client int, a *wire.ChunkAck) error {
	if client < 0 || client >= s.numClients {
		return fmt.Errorf("pubsub: chunk ack to unknown client %d", client)
	}
	var e wire.Encoder
	if err := s.broker.Publish(TenantPrefix(s.tenant)+ChunkAckTopic(client), e.Encode(a)); err != nil {
		return err
	}
	s.stats.AddSent(e.Len())
	return nil
}

// SendChunk publishes one model chunk to this client's chunk topic.
func (c *ClientTransport) SendChunk(mc *wire.ModelChunk) error {
	return c.publish(TenantPrefix(c.tenant)+ChunkTopic(c.id), mc)
}

// RecvChunkAck blocks for the next chunk ack; timeout <= 0 waits
// forever, otherwise comm.ErrAckTimeout is returned when it elapses.
func (c *ClientTransport) RecvChunkAck(timeout time.Duration) (*wire.ChunkAck, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	msg, ok, timedOut := c.acks.RecvTimer(timer)
	if timedOut {
		return nil, comm.ErrAckTimeout
	}
	if !ok {
		return nil, ErrClosed
	}
	c.stats.AddRecv(len(msg.Payload))
	var a wire.ChunkAck
	if err := a.Unmarshal(wire.NewDecoder(msg.Payload)); err != nil {
		return nil, err
	}
	return &a, nil
}

// Interface conformance checks.
var (
	_ comm.ChunkSender   = (*ClientTransport)(nil)
	_ comm.ChunkGatherer = (*ServerTransport)(nil)
)
