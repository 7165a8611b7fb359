// Package pubsub implements a lightweight topic-based publish/subscribe
// broker, the stand-in for the MQTT support the paper lists as planned
// ("MQTT (TBD)" in the architecture figure). Messages are byte payloads
// published to string topics and fanned out to all subscribers, with
// per-subscriber FIFO ordering — the QoS-0 semantics of MQTT.
//
// A transport adapter maps the FL protocol onto two topics: the server
// publishes global models to "fl/global"; clients publish local updates to
// "fl/update". Payloads are encoded with the internal/wire codec, so the
// pub/sub path pays the same serialization cost as RPC.
package pubsub

import (
	"errors"
	"fmt"
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
}

// Broker routes published messages to topic subscribers.
type Broker struct {
	mu     sync.Mutex
	subs   map[string][]*Subscription
	closed bool
}

// NewBroker creates an empty broker.
func NewBroker() *Broker {
	return &Broker{subs: map[string][]*Subscription{}}
}

// Subscription is one subscriber's ordered message queue. Teardown is
// signalled through done rather than by closing the message channel, so a
// publisher mid-send to a departing subscriber backs off cleanly instead
// of panicking on a closed channel.
type Subscription struct {
	broker *Broker
	topic  string
	ch     chan Message
	done   chan struct{}
	once   sync.Once
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
	s := &Subscription{
		broker: b,
		topic:  topic,
		ch:     make(chan Message, capacity),
		done:   make(chan struct{}),
	}
	b.subs[topic] = append(b.subs[topic], s)
	return s, nil
}

// Publish delivers payload to every current subscriber of topic. A
// subscriber that unsubscribes mid-delivery simply misses the message.
func (b *Broker) Publish(topic string, payload []byte) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	subs := append([]*Subscription(nil), b.subs[topic]...)
	b.mu.Unlock()
	msg := Message{Topic: topic, Payload: payload}
	for _, s := range subs {
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
		for i, x := range list {
			if x == s {
				b.subs[s.topic] = append(list[:i], list[i+1:]...)
				break
			}
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
// rather than the whole federation; updates flow back over one shared
// topic whose arrival order the buffered scheduler consumes directly.
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

// TenantUpdateTopic returns tenant's shared local-update topic.
func TenantUpdateTopic(tenant int) string { return TenantPrefix(tenant) + TopicUpdate }

// ServerTransport adapts a broker to comm.ServerTransport. Its gathers,
// Forgive, Outstanding and RecvChunkFrom are the embedded inbox's.
//
// A topic broker is connectionless: updates share one topic, so the
// inbox cannot know an update's sender and holds its ClientID to the
// roster only; cohort attribution happens in GatherFrom via
// comm.OrderByClient. The server transport is the only subscriber of its
// update and chunk topics, and returns each payload to the pool its
// publisher took it from once it is decoded.
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
	broker *Broker
	tenant int
	id     int
	global *Subscription
	acks   *Subscription // per-client chunk-ack topic
	stats  comm.Stats
	enc    wire.Encoder     // the payload being encoded, only while publish runs
	model  wire.GlobalModel // what RecvGlobal returns; recycled per call
}

// NewFLBroker wires a broker for one server and numClients clients and
// returns the transports.
func NewFLBroker(numClients int) (*ServerTransport, []*ClientTransport, error) {
	b := NewBroker()
	st, clients, err := newTenantTransports(b, 0, numClients, false)
	if err != nil {
		return nil, nil, err
	}
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
		st, cts, err := newTenantTransports(b, t, n, true)
		if err != nil {
			return nil, nil, nil, err
		}
		servers[t], clients[t] = st, cts
	}
	return b, servers, clients, nil
}

// newTenantTransports wires one tenant's transports on a (possibly shared)
// broker. shared marks the server transport as a tenant view whose Close
// must not tear down the broker under its neighbors.
func newTenantTransports(b *Broker, tenant, numClients int, shared bool) (*ServerTransport, []*ClientTransport, error) {
	prefix := TenantPrefix(tenant)
	upd, err := b.Subscribe(prefix+TopicUpdate, numClients)
	if err != nil {
		return nil, nil, err
	}
	st := &ServerTransport{broker: b, tenant: tenant, shared: shared, numClients: numClients}
	st.Inbox = comm.NewInbox(comm.InboxConfig{
		Name: "pubsub", Clients: numClients, Tenant: tenant, Stats: &st.stats, Done: upd.done,
	})
	go st.pump(upd, -1)
	clients := make([]*ClientTransport, numClients)
	for i := range clients {
		g, err := b.Subscribe(prefix+GlobalTopic(i), 1)
		if err != nil {
			return nil, nil, err
		}
		// The pump holds one chunk and the inbox queues the next few: the
		// topic itself queues none, so that is how far a client streams
		// ahead of the gather before its Publish blocks. One ack comes back
		// per upload.
		mc, err := b.Subscribe(prefix+ChunkTopic(i), 0)
		if err != nil {
			return nil, nil, err
		}
		go st.pump(mc, i)
		ack, err := b.Subscribe(prefix+ChunkAckTopic(i), 1)
		if err != nil {
			return nil, nil, err
		}
		clients[i] = &ClientTransport{broker: b, tenant: tenant, id: i, global: g, acks: ack}
	}
	return st, clients, nil
}

// pump feeds every message of one of the server's subscriptions to the
// inbox, which decodes it and returns the payload to the pool its
// publisher took it from (comm.EncodeFrame): client's streamed chunks, or
// — client -1 — the tenant's shared update topic, whose updates name their
// own sender. It runs until the broker closes.
func (s *ServerTransport) pump(sub *Subscription, client int) {
	var dec wire.Decoder
	for {
		msg, ok := sub.Recv()
		if !ok || !s.PostFrame(&dec, client, client >= 0, msg.Payload) {
			return
		}
	}
}

// Broadcast publishes the global model to every client's topic.
func (s *ServerTransport) Broadcast(m *wire.GlobalModel) error {
	return s.SendTo(comm.AllClients(s.numClients), m)
}

// SendTo publishes the global model to the listed clients' topics only.
func (s *ServerTransport) SendTo(clients []int, m *wire.GlobalModel) error {
	// Encoded once into a buffer of its own: the subscribers' queues share
	// the bytes and may hold them past this call.
	var e wire.Encoder
	e.Encode(m)
	if err := s.Open(clients, m); err != nil {
		return err
	}
	for i, c := range clients {
		if err := s.broker.Publish(TenantGlobalTopic(s.tenant, c), e.Bytes()); err != nil {
			if !m.Final {
				for _, c := range clients[i:] {
					s.Rollback(c) // no reply can come from a model that never left
				}
			}
			return err
		}
		s.stats.AddSent(e.Len())
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

// RecvGlobal blocks for the next published global model, decoded into
// storage the transport keeps: it is valid until the next RecvGlobal.
func (c *ClientTransport) RecvGlobal() (*wire.GlobalModel, error) {
	msg, ok := c.global.Recv()
	if !ok {
		return nil, ErrClosed
	}
	c.stats.AddRecv(len(msg.Payload))
	if err := c.model.Unmarshal(wire.NewDecoder(msg.Payload)); err != nil {
		return nil, err
	}
	return &c.model, nil
}

// ReceiveInto lends w to the kept model: every later dense broadcast is
// decoded into it.
func (c *ClientTransport) ReceiveInto(w []float64) { c.model.Weights = w[:0] }

// SendUpdate publishes the client's update to its tenant's update topic,
// stamped with the tenant id.
func (c *ClientTransport) SendUpdate(m *wire.LocalUpdate) error {
	m.TenantID = uint32(c.tenant)
	return c.publish(TenantUpdateTopic(c.tenant), m)
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
