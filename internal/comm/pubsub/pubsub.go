// Package pubsub implements a lightweight topic-based publish/subscribe
// broker, the stand-in for the MQTT support the paper lists as planned
// ("MQTT (TBD)" in the architecture figure). Messages are byte payloads
// published to string topics and fanned out to all subscribers, with
// per-subscriber FIFO ordering — the QoS-0 semantics of MQTT.
//
// A transport adapter maps the FL protocol onto per-client topics: the
// server publishes client i's global models to "fl/global/i"; client i
// publishes its local updates to "fl/update/i". Payloads are encoded with
// the internal/wire codec, so the pub/sub path pays the same
// serialization cost as RPC.
package pubsub

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// ErrClosed is returned by operations on a closed broker or subscription.
var ErrClosed = errors.New("pubsub: closed")

// Message is one published payload.
type Message struct {
	Topic   string
	Payload []byte

	shared *comm.SharedFrame // what Payload belongs to, when the publisher shares it
}

// Broker routes published messages to topic subscribers.
type Broker struct {
	mu     sync.Mutex
	subs   map[string][]*Subscription
	closed bool
	done   chan struct{} // closed by Close
}

// NewBroker creates an empty broker.
func NewBroker() *Broker {
	return &Broker{subs: map[string][]*Subscription{}, done: make(chan struct{})}
}

// Subscription is one subscriber's ordered message queue, or a handler
// that takes each message in its publisher's goroutine. Teardown is
// signalled through done rather than by closing the message channel, so a
// publisher mid-send to a departing subscriber backs off cleanly instead
// of panicking on a closed channel.
type Subscription struct {
	broker *Broker
	topic  string
	ch     chan Message
	done   chan struct{}
	once   sync.Once

	handler func(Message) // called one message at a time (mu) instead of queueing
	mu      sync.Mutex
}

// Subscribe registers a new subscription on topic with the given queue
// capacity (messages beyond a full queue block the publisher, providing
// backpressure).
func (b *Broker) Subscribe(topic string, capacity int) (*Subscription, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	return b.add(topic, capacity, nil), nil
}

// add registers a subscription on topic, with b.mu held: a queue of the
// given capacity or, given a handler, a synchronous subscriber. A publish
// calls the handler in the publishing goroutine, one message at a time,
// and returns once it has, so messages published one after another are
// handled in that order, and a blocked handler holds back only its
// topic's publishers.
func (b *Broker) add(topic string, capacity int, handler func(Message)) *Subscription {
	s := &Subscription{broker: b, topic: topic, ch: make(chan Message, capacity), done: make(chan struct{}), handler: handler}
	b.subs[topic] = append(b.subs[topic], s)
	return s
}

// Publish delivers payload to every current subscriber of topic. A
// subscriber that unsubscribes mid-delivery simply misses the message.
func (b *Broker) Publish(topic string, payload []byte) error {
	return b.publish(Message{Topic: topic, Payload: payload})
}

// publish delivers msg to every current subscriber of its topic.
func (b *Broker) publish(msg Message) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	// A topic's list is never changed below its length (add appends,
	// Unsubscribe copies), so it is read here without a copy.
	subs := b.subs[msg.Topic]
	b.mu.Unlock()
	for _, s := range subs {
		if s.handler != nil {
			s.mu.Lock()
			s.handler(msg)
			s.mu.Unlock()
			continue
		}
		select {
		case s.ch <- msg:
		case <-s.done:
		}
	}
	return nil
}

// Recv blocks for the next message; ok is false after Unsubscribe/Close
// once the queue has drained.
func (s *Subscription) Recv() (Message, bool) {
	m, ok, _ := s.RecvTimer(nil)
	return m, ok
}

// RecvTimer is Recv with an optional deadline channel (nil waits
// forever): timedOut reports that the timer fired before a message or
// teardown. The teardown-drain rule — messages queued before
// Unsubscribe/Close are still delivered — lives only here.
func (s *Subscription) RecvTimer(timer <-chan time.Time) (m Message, ok, timedOut bool) {
	select {
	case m := <-s.ch:
		return m, true, false
	case <-s.done:
		// Drain messages that were queued before teardown, preserving the
		// closed-channel semantics this replaced.
		select {
		case m := <-s.ch:
			return m, true, false
		default:
			return Message{}, false, false
		}
	case <-timer:
		return Message{}, false, true
	}
}

// Unsubscribe removes the subscription and releases its queue.
func (s *Subscription) Unsubscribe() {
	s.once.Do(func() {
		b := s.broker
		b.mu.Lock()
		list := b.subs[s.topic]
		if i := slices.Index(list, s); i >= 0 {
			// A new list: publishers may still be delivering to the old one.
			b.subs[s.topic] = slices.Delete(slices.Clone(list), i, i+1)
		}
		b.mu.Unlock()
		close(s.done)
	})
}

// Close shuts the broker and all subscriptions.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.done)
	var all []*Subscription
	for _, list := range b.subs {
		all = append(all, list...)
	}
	b.subs = map[string][]*Subscription{}
	b.mu.Unlock()
	for _, s := range all {
		s.once.Do(func() { close(s.done) })
	}
}

// Topic names of the FL protocol mapping. Global models are published to
// per-client topics (TopicGlobal/<id>) so a scheduler can address a cohort
// rather than the whole federation; updates flow back over per-client
// topics too (TopicUpdate/<id>), so the server knows who sent each one.
//
// On a multi-tenant broker each tenant's topics are namespaced under a
// "t<id>/" prefix; tenant 0 keeps the unprefixed names, so a pre-tenancy
// client publishing to the legacy topics lands in the default tenant.
const (
	TopicGlobal = "fl/global"
	TopicUpdate = "fl/update"
)

// TenantPrefix returns the topic namespace of a tenant: empty for the
// default tenant 0, "t<id>/" otherwise.
func TenantPrefix(tenant int) string {
	if tenant == 0 {
		return ""
	}
	return fmt.Sprintf("t%d/", tenant)
}

// GlobalTopic returns the per-client topic carrying client id's models.
func GlobalTopic(id int) string { return fmt.Sprintf("%s/%d", TopicGlobal, id) }

// TenantGlobalTopic returns tenant's per-client global-model topic.
func TenantGlobalTopic(tenant, id int) string { return TenantPrefix(tenant) + GlobalTopic(id) }

// UpdateTopic returns the topic carrying client id's local updates.
func UpdateTopic(id int) string { return fmt.Sprintf("%s/%d", TopicUpdate, id) }

// ServerTransport adapts a broker to comm.ServerTransport. Its gathers,
// Forgive, Outstanding and RecvChunkFrom are the embedded inbox's.
//
// Each client publishes on topics of its own, so the inbox knows an
// update's sender and holds its ClientID to it. The server transport is
// the only subscriber of its update and chunk topics, and a synchronous
// one (receiver): a client's publish returns once the inbox has queued
// its message, so an update whose SendUpdate has returned is gathered
// ahead of any update sent after it.
type ServerTransport struct {
	*comm.Inbox
	broker     *Broker
	tenant     int // tenant this view serves (0 = default)
	shared     bool
	numClients int
	stats      comm.Stats
}

// ClientTransport adapts a broker to comm.ClientTransport.
type ClientTransport struct {
	broker  *Broker
	tenant  int
	updates string // the client's update topic
	chunks  string // the client's chunk topic
	global  *Subscription
	acks    *Subscription // per-client chunk-ack topic
	stats   comm.Stats
	enc     wire.Encoder     // the payload being encoded, only while publish runs
	model   wire.GlobalModel // what RecvGlobal returns; recycled per call
}

// NewFLBroker wires a broker for one server and numClients clients and
// returns the transports.
func NewFLBroker(numClients int) (*ServerTransport, []*ClientTransport, error) {
	st, clients := newTenantTransports(NewBroker(), 0, numClients, false)
	return st, clients, nil
}

// NewTenantFLBroker wires one shared broker hosting len(clientsPerTenant)
// independent federations. Tenant t's transports publish and subscribe
// under the TenantPrefix(t) namespace, with their own obligation ledger —
// one tenant's gathers, forgiveness, and timeouts never observe another's
// traffic. The per-tenant server transports' Close is a no-op; Close the
// broker itself to tear everything down.
func NewTenantFLBroker(clientsPerTenant []int) (*Broker, []*ServerTransport, [][]*ClientTransport, error) {
	if len(clientsPerTenant) == 0 {
		return nil, nil, nil, errors.New("pubsub: need at least one tenant")
	}
	b := NewBroker()
	servers := make([]*ServerTransport, len(clientsPerTenant))
	clients := make([][]*ClientTransport, len(clientsPerTenant))
	for t, n := range clientsPerTenant {
		if n <= 0 {
			return nil, nil, nil, fmt.Errorf("pubsub: tenant %d has %d clients, need at least 1", t, n)
		}
		servers[t], clients[t] = newTenantTransports(b, t, n, true)
	}
	return b, servers, clients, nil
}

// newTenantTransports wires one tenant's transports on a (possibly shared)
// broker that has not been handed out yet, so is open. shared marks the
// server transport as a tenant view whose Close must not tear down the
// broker under its neighbors.
func newTenantTransports(b *Broker, tenant, numClients int, shared bool) (*ServerTransport, []*ClientTransport) {
	prefix := TenantPrefix(tenant)
	st := &ServerTransport{broker: b, tenant: tenant, shared: shared, numClients: numClients}
	st.Inbox = comm.NewInbox(comm.InboxConfig{
		Name: "pubsub", Clients: numClients, Tenant: tenant, Stats: &st.stats, Done: b.done,
	})
	b.mu.Lock()
	defer b.mu.Unlock()
	clients := make([]*ClientTransport, numClients)
	for i := range clients {
		// The server takes the client's updates and chunks as they are
		// published; one global model and one ack wait for the client.
		updates, chunks := prefix+UpdateTopic(i), prefix+ChunkTopic(i)
		b.add(updates, 0, st.receiver(i, wire.KindLocalUpdate))
		b.add(chunks, 0, st.receiver(i, wire.KindModelChunk))
		clients[i] = &ClientTransport{broker: b, tenant: tenant, updates: updates, chunks: chunks,
			global: b.add(prefix+GlobalTopic(i), 1, nil), acks: b.add(prefix+ChunkAckTopic(i), 1, nil)}
	}
	return st, clients
}

// receiver is the handler of client's update or chunk topic (kind): the
// inbox decodes each message in the publishing goroutine, queues it and
// returns the payload to the pool its publisher took it from
// (comm.EncodeFrame).
func (s *ServerTransport) receiver(client int, kind wire.Kind) func(Message) {
	var dec wire.Decoder
	return func(msg Message) {
		dec.Reset(msg.Payload)
		s.Receive(&dec, kind, client, 0, len(msg.Payload), msg.Payload)
	}
}

// Broadcast publishes the global model to every client's topic.
func (s *ServerTransport) Broadcast(m *wire.GlobalModel) error {
	return s.SendTo(comm.AllClients(s.numClients), m)
}

// SendTo publishes the global model to the listed clients' topics only.
func (s *ServerTransport) SendTo(clients []int, m *wire.GlobalModel) error {
	// Encoded once into a pooled frame: the subscribers' queues share it,
	// and the last client to decode it returns it to the pool.
	f := comm.EncodeShared(m, len(clients))
	if err := s.Open(clients, m); err != nil {
		return err
	}
	frame := f.Bytes
	for i, c := range clients {
		msg := Message{Topic: TenantGlobalTopic(s.tenant, c), Payload: frame, shared: f}
		if err := s.broker.publish(msg); err != nil {
			if !m.Final {
				for _, c := range clients[i:] {
					s.Rollback(c) // no reply can come from a model that never left
				}
			}
			return err
		}
		s.stats.AddSent(len(frame))
	}
	return nil
}

// Stats returns the traffic snapshot.
func (s *ServerTransport) Stats() comm.Snapshot { return s.stats.Snapshot() }

// Close shuts the whole broker — unless this transport is one tenant's
// view of a shared broker, in which case it is a no-op (one tenant
// finishing must not tear down its neighbors; Close the Broker itself).
func (s *ServerTransport) Close() error {
	if s.shared {
		return nil
	}
	s.broker.Close()
	return nil
}

// RecvGlobal blocks for the next published global model, decoded dense
// (wire.GlobalModel.UnmarshalDense) into storage the transport keeps: it
// is valid until the next RecvGlobal. A shared frame is released once
// decoded.
func (c *ClientTransport) RecvGlobal() (*wire.GlobalModel, error) {
	msg, ok := c.global.Recv()
	if !ok {
		return nil, ErrClosed
	}
	c.stats.AddRecv(len(msg.Payload))
	err := c.model.UnmarshalDense(wire.NewDecoder(msg.Payload))
	msg.shared.Release()
	if err != nil {
		return nil, err
	}
	return &c.model, nil
}

// ReceiveInto lends w to the kept model: every later broadcast, dense or
// float16, is decoded into it.
func (c *ClientTransport) ReceiveInto(w []float64) { c.model.Weights = w[:0] }

// SendUpdate publishes the client's update to its update topic, stamped
// with the tenant id. It returns once the server has queued the update
// for its gathers — in a windowed round, once the gather has taken all
// but the chunk queue's last windows of its primal.
func (c *ClientTransport) SendUpdate(m *wire.LocalUpdate) error {
	m.TenantID = uint32(c.tenant)
	return c.publish(c.updates, m)
}

// publish encodes m into a pooled payload (comm.EncodeFrame), which the
// server returns to the pool once it has decoded it, and publishes it to
// topic.
func (c *ClientTransport) publish(topic string, m wire.Marshaler) error {
	payload := comm.EncodeFrame(&c.enc, m)
	if err := c.broker.Publish(topic, payload); err != nil {
		return err
	}
	c.stats.AddSent(len(payload))
	return nil
}

// Stats returns the traffic snapshot.
func (c *ClientTransport) Stats() comm.Snapshot { return c.stats.Snapshot() }

// Close unsubscribes this client.
func (c *ClientTransport) Close() error {
	c.global.Unsubscribe()
	return nil
}

// Interface conformance checks.
var (
	_ comm.ServerTransport = (*ServerTransport)(nil)
	_ comm.ClientTransport = (*ClientTransport)(nil)
)
