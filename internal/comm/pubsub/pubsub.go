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

// ServerTransport adapts a broker to comm.ServerTransport.
//
// A topic broker is connectionless, so spontaneous publishes are accepted
// (QoS-0 style) and cohort attribution happens at GatherFrom via
// comm.OrderByClient. The transport still keeps the shared obligation
// ledger — models dispatched vs updates collected — so that GatherAny
// fails fast on an overdraw instead of deadlocking, round timeouts can be
// forgiven, and a forgiven round's late publish is discarded.
type ServerTransport struct {
	broker     *Broker
	tenant     int // tenant this view serves (0 = default)
	shared     bool
	numClients int
	updates    *Subscription
	chunks     []*Subscription // per-client streamed chunk topics
	stats      comm.Stats
	ledger     *comm.Ledger
}

// ClientTransport adapts a broker to comm.ClientTransport.
type ClientTransport struct {
	broker *Broker
	tenant int
	id     int
	global *Subscription
	acks   *Subscription // per-client chunk-ack topic
	stats  comm.Stats
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
	st := &ServerTransport{
		broker:     b,
		tenant:     tenant,
		shared:     shared,
		numClients: numClients,
		updates:    upd,
		chunks:     make([]*Subscription, numClients),
		ledger:     comm.NewLedger(numClients),
	}
	clients := make([]*ClientTransport, numClients)
	for i := range clients {
		g, err := b.Subscribe(prefix+GlobalTopic(i), 1)
		if err != nil {
			return nil, nil, err
		}
		// Chunk queues hold 4, matching comm.ChunkPipe: how far a client
		// streams ahead of the gather before its Publish blocks. One ack
		// comes back per upload.
		mc, err := b.Subscribe(prefix+ChunkTopic(i), 4)
		if err != nil {
			return nil, nil, err
		}
		st.chunks[i] = mc
		ack, err := b.Subscribe(prefix+ChunkAckTopic(i), 1)
		if err != nil {
			return nil, nil, err
		}
		clients[i] = &ClientTransport{broker: b, tenant: tenant, id: i, global: g, acks: ack}
	}
	return st, clients, nil
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
	for _, c := range clients {
		if c < 0 || c >= s.numClients {
			return fmt.Errorf("pubsub: send to unknown client %d", c)
		}
		if !m.Final {
			if err := s.ledger.Open(c, m.Round); err != nil {
				return fmt.Errorf("pubsub: %w", err)
			}
		}
		if err := s.broker.Publish(TenantGlobalTopic(s.tenant, c), e.Bytes()); err != nil {
			if !m.Final {
				s.ledger.Rollback(c)
			}
			return err
		}
		s.stats.AddSent(e.Len())
	}
	return nil
}

// collect reads n updates from the shared update topic in arrival order.
// A nil timer waits forever; otherwise the gather gives up when the timer
// fires and returns the partial batch with ErrRoundTimeout.
func (s *ServerTransport) collect(n int, timer <-chan time.Time) ([]*wire.LocalUpdate, error) {
	out := make([]*wire.LocalUpdate, 0, n)
	for len(out) < n {
		msg, ok, timedOut := s.updates.RecvTimer(timer)
		if timedOut {
			return out, fmt.Errorf("pubsub: %d of %d updates after deadline: %w", len(out), n, comm.ErrRoundTimeout)
		}
		if !ok {
			return nil, ErrClosed
		}
		s.stats.AddRecv(len(msg.Payload))
		u := comm.NewUpdate()
		if err := u.Unmarshal(wire.NewDecoder(msg.Payload)); err != nil {
			return nil, err
		}
		if id := int(u.ClientID); id < 0 || id >= s.numClients {
			return nil, fmt.Errorf("pubsub: update from unknown client %d", id)
		}
		if int(u.TenantID) != s.tenant {
			return nil, fmt.Errorf("pubsub: update from client %d carries tenant %d, topic belongs to tenant %d",
				u.ClientID, u.TenantID, s.tenant)
		}
		if !s.ledger.Admit(int(u.ClientID), u.Round) {
			// Late publish for a forgiven round: discard.
			comm.ReleaseUpdate(u)
			continue
		}
		out = append(out, u)
	}
	return out, nil
}

// GatherFrom reads one update per listed client, ordered as listed.
func (s *ServerTransport) GatherFrom(clients []int) ([]*wire.LocalUpdate, error) {
	got, err := s.collect(len(clients), nil)
	if err != nil {
		return nil, err
	}
	return comm.OrderByClient(clients, got)
}

// GatherAny reads the next n updates in arrival order. Unlike GatherFrom
// (which tolerates spontaneous publishes, QoS-0 style), it checks the
// dispatch ledger so a scheduler overdraw fails fast instead of blocking
// forever on an update that will never come.
func (s *ServerTransport) GatherAny(n int) ([]*wire.LocalUpdate, error) {
	if owed := s.ledger.Owed(); n > owed {
		return nil, fmt.Errorf("pubsub: gathering %d updates with only %d outstanding", n, owed)
	}
	return s.collect(n, nil)
}

// GatherUntil reads up to n outstanding updates, giving up at the
// deadline; see comm.ServerTransport.
func (s *ServerTransport) GatherUntil(n int, timeout time.Duration) ([]*wire.LocalUpdate, error) {
	return comm.GatherWithDeadline(s.ledger, "pubsub", n, timeout, s.collect)
}

// Forgive closes the open obligations of the listed clients; their late
// publishes, if any ever arrive, are discarded.
func (s *ServerTransport) Forgive(clients []int) { s.ledger.Forgive(clients) }

// Outstanding returns the sorted clients with open update obligations.
func (s *ServerTransport) Outstanding() []int { return s.ledger.Outstanding() }

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

// SendUpdate publishes the client's update to its tenant's update topic,
// stamped with the tenant id.
func (c *ClientTransport) SendUpdate(m *wire.LocalUpdate) error {
	m.TenantID = uint32(c.tenant)
	var e wire.Encoder
	if err := c.broker.Publish(TenantUpdateTopic(c.tenant), e.Encode(m)); err != nil {
		return err
	}
	c.stats.AddSent(e.Len())
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
