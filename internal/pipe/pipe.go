// Package pipe provides reliable, in-order, exactly-once message delivery on
// top of the unreliable datagram transport — the role JXTA's pipe service
// plays in the paper's platform.
//
// A Mux owns one transport endpoint and demultiplexes any number of Conns
// over it. Reliability is per *message*: a message is acknowledged as a unit
// and retransmitted as a unit, reproducing the property the paper's
// granularity experiment (Figure 5) depends on — losing a 100 Mb "whole
// file" message costs the whole 100 Mb again, while losing one of 16 parts
// costs 6.25 Mb.
//
// Senders adapt their retransmission timeout from measured round-trip times
// and service rates (Jacobson/Karn), with a conservative floor for messages
// larger than anything measured yet.
package pipe

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// Frame kinds.
const (
	kindData byte = 1
	kindAck  byte = 2
	kindFin  byte = 3
)

// debugRTO, when set by tests, observes each attempt's timeout.
var debugRTO func(seq uint64, attempt int, rto time.Duration)

// debugDispatch, when set by tests, observes every dispatched frame.
var debugDispatch func(local string, kind byte, id, seq, ack uint64, size int)

// SetDebugDispatch installs a frame observer; for debugging only.
func SetDebugDispatch(fn func(local string, kind byte, id, seq, ack uint64, size int)) {
	debugDispatch = fn
}

// Errors returned by pipe operations.
var (
	ErrClosed  = errors.New("pipe: closed")
	ErrBroken  = errors.New("pipe: peer unreachable (retries exhausted)")
	ErrTimeout = errors.New("pipe: timeout")
)

// Options tunes a Mux and the Conns it creates.
type Options struct {
	// Window is the maximum number of unacknowledged messages per Conn.
	// The default 4 keeps concurrent senders on a high-latency path busy
	// (see BenchmarkAblationPipeWindow). Set Window to 1 explicitly for
	// stop-and-wait — the paper's "confirm reception before the next part"
	// protocol (the transfer engine confirms each part at the application
	// level regardless, so the figures' granularity semantics do not
	// depend on this default).
	Window int
	// MaxRetries bounds transmission attempts per message (default 8).
	MaxRetries int
	// InitialRTT seeds the RTO estimator before any sample (default 500ms).
	InitialRTT time.Duration
	// MinRate (bytes/second) lower-bounds the assumed service rate when
	// sizing timeouts for messages before a rate has been measured
	// (default 100 KB/s — just below the slowest calibrated PlanetLab
	// path). Too high causes spurious whole-message retransmissions on
	// slow paths; too low makes loss recovery of large messages glacial.
	MinRate float64
	// MaxRTO caps a single attempt's timeout (default 30 minutes — a whole
	// 100 Mb message on a degraded PlanetLab path is legitimately slow).
	MaxRTO time.Duration
	// FirstID offsets the mux's locally allocated conn-id space (ids start
	// at FirstID+1; default 0). A long-lived remote mux tombstones the
	// (addr, id) key of every conn it has torn down so late retransmits
	// cannot resurrect phantom conns — which means a node that restarts
	// its mux must not reuse its previous incarnation's ids, or its first
	// messages are silently dropped as stale. Rebooted clients derive
	// FirstID from the boot instant (see overlay.FreshConnIDs); conn ids
	// are varint-encoded, so the default 0 keeps static deployments'
	// frames byte-identical.
	FirstID uint64
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 8
	}
	if o.InitialRTT <= 0 {
		o.InitialRTT = 500 * time.Millisecond
	}
	if o.MinRate <= 0 {
		o.MinRate = 100_000
	}
	if o.MaxRTO <= 0 {
		o.MaxRTO = 30 * time.Minute
	}
	return o
}

// Message is one application message received from a Conn.
type Message struct {
	Payload []byte
	// Size is the wire size of the message (>= len(Payload)); see
	// transport.Message.Size.
	Size int
}

type connKey struct {
	peer transport.Addr
	id   uint64
	// theirs marks ids allocated by the remote side (accepted conns).
	theirs bool
}

// Mux demultiplexes reliable Conns over one endpoint.
type Mux struct {
	host transport.Host
	ep   transport.Endpoint
	opts Options

	mu      sync.Mutex
	conns   map[connKey]*Conn
	dead    map[connKey]bool
	nextID  uint64
	closed  bool
	accepts transport.Queue
}

// NewMux wraps ep in a demultiplexer and starts its reader process.
func NewMux(h transport.Host, ep transport.Endpoint, opts Options) *Mux {
	m := &Mux{
		host:    h,
		ep:      ep,
		opts:    opts.withDefaults(),
		conns:   make(map[connKey]*Conn),
		dead:    make(map[connKey]bool),
		nextID:  opts.FirstID,
		accepts: h.NewQueue(),
	}
	h.Go(m.readLoop)
	return m
}

// Addr returns the underlying endpoint address.
func (m *Mux) Addr() transport.Addr { return m.ep.Addr() }

// Dial creates a Conn to the remote pipe endpoint. There is no handshake:
// the connection materializes at the remote Mux when the first message
// arrives (JXTA pipes behave the same way).
func (m *Mux) Dial(remote transport.Addr) (*Conn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.nextID++
	c := m.newConnLocked(remote, m.nextID, false)
	return c, nil
}

// Accept blocks until a remote peer dials in.
func (m *Mux) Accept() (*Conn, error) {
	v, err := m.accepts.Pop()
	if err != nil {
		return nil, ErrClosed
	}
	return v.(*Conn), nil
}

// Pending reports how many inbound conns are already buffered awaiting
// Accept. While it stays positive the next Accept returns without blocking
// (only the accept loop pops the queue), which lets a server drain a burst
// of same-instant dials into one admission batch.
func (m *Mux) Pending() int { return m.accepts.Len() }

// Close tears down the mux, every conn, and the endpoint.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := make([]*Conn, 0, len(m.conns))
	for _, c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()
	for _, c := range conns {
		c.teardown(ErrClosed, false)
	}
	m.accepts.Close()
	return m.ep.Close()
}

// newConnLocked registers a conn in the mux table. Caller holds m.mu.
// The conn is deliberately lean: the reorder buffer, overflow in-flight
// table and window wait queue are allocated only on the paths that need
// them (out-of-order arrival, concurrent sends, window exhaustion), so the
// request/response conns that dominate broker traffic — one in-order send
// in flight at a time — allocate one inbox queue and nothing else.
func (m *Mux) newConnLocked(peer transport.Addr, id uint64, theirs bool) *Conn {
	c := &Conn{
		mux:      m,
		peer:     peer,
		id:       id,
		theirs:   theirs,
		inbox:    m.host.NewQueue(),
		tokAvail: m.opts.Window,
		recvNext: 1,
		srtt:     m.opts.InitialRTT,
		rttvar:   m.opts.InitialRTT / 2,
	}
	m.conns[connKey{peer, id, theirs}] = c
	return c
}

// readLoop is the mux's single reader process.
func (m *Mux) readLoop() {
	for {
		msg, err := m.ep.Recv()
		if err != nil {
			return
		}
		m.dispatch(msg)
	}
}

func (m *Mux) dispatch(msg transport.Message) {
	d := wire.NewDecoder(msg.Payload)
	kind := d.Byte()
	dirTheirs := d.Bool() // true: pipeID allocated by the frame's sender
	id := d.Uint64()
	seq := d.Uint64()
	ack := d.Uint64()
	payload := d.BytesField()
	if d.Err() != nil {
		return // corrupt frame: drop, sender will retransmit
	}
	// Everything that is not app payload — fields plus length prefix — is
	// header; subtracting it recovers the app-level virtual size.
	hdrLen := len(msg.Payload) - len(payload)
	appSize := msg.Size - hdrLen
	if appSize < len(payload) {
		appSize = len(payload)
	}

	// A frame whose id was allocated by its sender lands in our "theirs"
	// space, and vice versa.
	key := connKey{msg.From, id, dirTheirs}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	c, ok := m.conns[key]
	if !ok {
		if kind != kindData || !dirTheirs || m.dead[key] {
			// Acks/fins for unknown conns and data for closed conns are
			// stale; drop.
			m.mu.Unlock()
			return
		}
		c = m.newConnLocked(msg.From, id, true)
		m.accepts.Push(c)
	}
	m.mu.Unlock()

	if debugDispatch != nil {
		debugDispatch(string(m.ep.Addr()), kind, id, seq, ack, appSize)
	}
	switch kind {
	case kindData:
		c.handleData(seq, payload, appSize)
	case kindAck:
		c.handleAck(ack)
	case kindFin:
		c.handleFin(seq)
	}
}

// sendFrame encodes and transmits one frame. size is the app-level wire
// size; the header is added on top.
func (m *Mux) sendFrame(peer transport.Addr, kind byte, dirTheirs bool, id, seq, ack uint64, payload []byte, size int) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(kind)
	e.Bool(dirTheirs)
	e.Uint64(id)
	e.Uint64(seq)
	e.Uint64(ack)
	hdrLen := e.Len() + uvarintLen(uint64(len(payload)))
	e.BytesField(payload)
	// Detach: the frame is the one copy of the payload. The transport takes
	// it over (simnet holds it until delivery, then the receiver owns it),
	// which is what lets Send merely borrow its payload.
	return m.ep.SendSized(peer, e.Detach(), hdrLen+size)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

type inflight struct {
	released transport.Queue // receives struct{} when acked, error value when broken
}

// Conn is one reliable bidirectional pipe between two endpoints.
type Conn struct {
	mux    *Mux
	peer   transport.Addr
	id     uint64
	theirs bool

	inbox transport.Queue // Message, delivered in order

	mu       sync.Mutex
	sendNext uint64 // next seq to allocate (first is 1)
	// In-flight sends: the common case is exactly one, held inline in fl1
	// (at seq flSeq); flMore is allocated only when sends overlap. flFree
	// recycles inflight records (and their wake queues) across sequential
	// sends on the conn — safe because a record receives exactly one push
	// (its registration is removed before the push) and is recycled only
	// after that push was consumed.
	fl1    *inflight
	flSeq  uint64
	flMore map[uint64]*inflight
	flFree []*inflight
	// Send-window accounting replacing a pre-filled token queue: tokAvail
	// counts free slots, tokWaiting the senders parked (or committed to
	// park) in tokWait, which is created on first contention. Waking a
	// parked sender goes through the same queue mechanics at the same
	// instant as the token-queue push did, so scheduling is unchanged.
	tokAvail   int
	tokWaiting int
	tokWait    transport.Queue
	recvNext   uint64             // next in-order seq expected
	recvBuf    map[uint64]Message // reorder buffer, allocated on first gap
	finSeq     uint64             // seq carried by a FIN we received, 0 if none
	broken     error              // non-nil once the conn is unusable
	closed     bool
	srtt       time.Duration
	rttvar     time.Duration
	rate       float64 // measured service rate, bytes/sec; 0 = no sample yet
	retxCount  int64   // cumulative retransmissions (observability)
}

// Remote returns the peer address.
func (c *Conn) Remote() transport.Addr { return c.peer }

// Retransmissions reports how many retransmission attempts this conn made.
func (c *Conn) Retransmissions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retxCount
}

// Send transmits payload reliably, blocking until the peer acknowledges it.
// Send borrows payload for the call only: every transmission copies it into
// a fresh frame, and no frame is built after Send returns, so the caller may
// reuse the buffer (a pooled encoder's, say) as soon as it does.
func (c *Conn) Send(payload []byte) error {
	return c.SendSized(payload, len(payload))
}

// SendSized is Send with an explicit wire size (see transport.Message.Size).
func (c *Conn) SendSized(payload []byte, size int) error {
	return c.SendTimeout(payload, size, 0)
}

// SendTimeout is SendSized with an explicit per-attempt timeout. Zero means
// adaptive (measured RTT/rate). Callers that know the expected duration — the
// transfer engine knows file part sizes and per-peer bandwidth history —
// should pass a hint to avoid spurious whole-message retransmissions.
func (c *Conn) SendTimeout(payload []byte, size int, attemptTimeout time.Duration) error {
	if size < len(payload) {
		size = len(payload)
	}
	// Acquire a window slot.
	if err := c.acquireToken(); err != nil {
		return c.brokenErr()
	}
	defer c.releaseToken()

	c.mu.Lock()
	if c.broken != nil || c.closed {
		err := c.broken
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	c.sendNext++
	seq := c.sendNext
	var fl *inflight
	if n := len(c.flFree); n > 0 {
		fl, c.flFree = c.flFree[n-1], c.flFree[:n-1]
	} else {
		fl = &inflight{released: c.mux.host.NewQueue()}
	}
	if c.fl1 == nil {
		c.fl1, c.flSeq = fl, seq
	} else {
		if c.flMore == nil {
			c.flMore = make(map[uint64]*inflight)
		}
		c.flMore[seq] = fl
	}
	c.mu.Unlock()

	for attempt := 0; attempt < c.mux.opts.MaxRetries; attempt++ {
		rto := attemptTimeout
		if rto <= 0 {
			rto = c.rtoFor(size)
		}
		// Exponential backoff on retries.
		rto <<= uint(attempt)
		if rto > c.mux.opts.MaxRTO {
			rto = c.mux.opts.MaxRTO
		}

		txStart := c.mux.host.Now()
		if err := c.mux.sendFrame(c.peer, kindData, !c.theirs, c.id, seq, 0, payload, size); err != nil {
			// Transport-level refusal (unknown node): not retryable.
			c.fail(fmt.Errorf("%w: %v", ErrBroken, err))
			return c.brokenErr()
		}
		if attempt > 0 {
			c.mu.Lock()
			c.retxCount++
			c.mu.Unlock()
		}

		if debugRTO != nil {
			debugRTO(seq, attempt, rto)
		}
		v, err := fl.released.PopTimeout(rto)
		switch {
		case err == nil:
			// The single push was consumed; the record is ours to recycle.
			c.recycleInflight(fl)
			if e, isErr := v.(error); isErr {
				return e
			}
			if attempt == 0 { // Karn's rule: only sample unambiguous acks
				c.observe(c.mux.host.Now().Sub(txStart), size)
			}
			return nil
		case errors.Is(err, transport.ErrTimeout):
			continue
		default:
			return c.brokenErr()
		}
	}
	c.mu.Lock()
	if c.fl1 == fl {
		c.fl1 = nil
	} else {
		delete(c.flMore, seq)
	}
	c.mu.Unlock()
	c.fail(ErrBroken)
	return ErrBroken
}

// recycleInflight returns an in-flight record to the conn's free list. Only
// a caller that consumed the record's single release push may recycle it: a
// record still registered (or removed but not yet pushed to) must be left
// to the garbage collector.
func (c *Conn) recycleInflight(fl *inflight) {
	c.mu.Lock()
	if len(c.flFree) < 8 {
		c.flFree = append(c.flFree, fl)
	}
	c.mu.Unlock()
}

// acquireToken claims a send-window slot, parking the caller when the
// window is full. A closed conn with free slots still grants one — matching
// the token queue this replaces, whose buffered tokens stayed poppable
// after Close — and SendTimeout's broken/closed check rejects the send.
func (c *Conn) acquireToken() error {
	c.mu.Lock()
	if c.tokAvail > 0 {
		c.tokAvail--
		c.mu.Unlock()
		return nil
	}
	if c.closed {
		c.mu.Unlock()
		return transport.ErrClosed
	}
	if c.tokWait == nil {
		c.tokWait = c.mux.host.NewQueue()
	}
	c.tokWaiting++
	w := c.tokWait
	c.mu.Unlock()
	_, err := w.Pop()
	return err
}

// releaseToken frees a window slot, handing it to the oldest parked sender
// if any. tokWaiting is exact under the scheduler's serialized dispatch (a
// waiter commits before anything else can run) and merely conservative
// under real concurrency: a slot pushed before its waiter parks is buffered
// in tokWait and claimed when the waiter arrives.
func (c *Conn) releaseToken() {
	c.mu.Lock()
	if c.tokWaiting > 0 {
		c.tokWaiting--
		w := c.tokWait
		c.mu.Unlock()
		_ = w.Push(struct{}{})
		return
	}
	c.tokAvail++
	c.mu.Unlock()
}

// rtoFor sizes one attempt's timeout: smoothed RTT plus the expected
// serialization time at the measured (or floor) service rate, doubled for
// safety.
func (c *Conn) rtoFor(size int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	rate := c.rate
	if rate <= 0 {
		rate = c.mux.opts.MinRate
	}
	tx := time.Duration(float64(size) / rate * float64(time.Second))
	rto := c.srtt + 4*c.rttvar + 2*tx
	if rto > c.mux.opts.MaxRTO {
		rto = c.mux.opts.MaxRTO
	}
	return rto
}

// observe folds an ack round-trip sample into the RTT and rate estimators.
func (c *Conn) observe(sample time.Duration, size int) {
	if sample <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	diff := sample - c.srtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + sample) / 8
	if size >= 4096 {
		r := float64(size) / sample.Seconds()
		if c.rate == 0 {
			c.rate = r
		} else {
			c.rate = 0.7*c.rate + 0.3*r
		}
	}
}

// Recv blocks until the next in-order message arrives.
func (c *Conn) Recv() (Message, error) {
	v, err := c.inbox.Pop()
	if err != nil {
		return Message{}, c.recvErr()
	}
	return v.(Message), nil
}

// RecvTimeout is Recv with a relative deadline.
func (c *Conn) RecvTimeout(d time.Duration) (Message, error) {
	v, err := c.inbox.PopTimeout(d)
	switch {
	case err == nil:
		return v.(Message), nil
	case errors.Is(err, transport.ErrTimeout):
		return Message{}, ErrTimeout
	default:
		return Message{}, c.recvErr()
	}
}

func (c *Conn) recvErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return c.broken
	}
	return ErrClosed
}

func (c *Conn) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return c.broken
	}
	if c.closed {
		return ErrClosed
	}
	return ErrBroken
}

// handleData processes an inbound DATA frame: deliver in order, buffer ahead
// of order, re-acknowledge duplicates.
func (c *Conn) handleData(seq uint64, payload []byte, size int) {
	c.mu.Lock()
	if seq >= c.recvNext {
		if seq == c.recvNext && len(c.recvBuf) == 0 {
			// In-order fast path — the reorder buffer stays untouched (and,
			// on a conn that never saw a gap, unallocated). No copy: the
			// payload aliases the delivered frame, which the transport gave
			// to this receiver alone (see transport.Message).
			c.inbox.Push(Message{Payload: payload, Size: size})
			c.recvNext++
		} else {
			if c.recvBuf == nil {
				c.recvBuf = make(map[uint64]Message)
			}
			if _, dup := c.recvBuf[seq]; !dup {
				c.recvBuf[seq] = Message{Payload: payload, Size: size}
			}
			for {
				m, ok := c.recvBuf[c.recvNext]
				if !ok {
					break
				}
				delete(c.recvBuf, c.recvNext)
				c.inbox.Push(m)
				c.recvNext++
			}
		}
		if c.finSeq != 0 && c.recvNext >= c.finSeq {
			c.inbox.Close()
		}
	}
	ackThrough := c.recvNext - 1
	c.mu.Unlock()
	// Cumulative ack (covers duplicates too).
	c.mux.sendFrame(c.peer, kindAck, !c.theirs, c.id, 0, ackThrough, nil, 0)
}

// handleAck releases every in-flight send at or below ack. The common case
// — one in-flight send, released inline — allocates nothing; multi-release
// (a cumulative ack covering overlapping sends) wakes senders in ascending
// seq order, a fixed order where the map it replaces iterated randomly.
func (c *Conn) handleAck(ack uint64) {
	c.mu.Lock()
	var one *inflight
	if c.fl1 != nil && c.flSeq <= ack && len(c.flMore) == 0 {
		// Fast path: the only in-flight send is released; no slice, no sort.
		one, c.fl1 = c.fl1, nil
		c.mu.Unlock()
		one.released.Push(struct{}{})
		return
	}
	type rel struct {
		seq uint64
		fl  *inflight
	}
	var done []rel
	if c.fl1 != nil && c.flSeq <= ack {
		done = append(done, rel{c.flSeq, c.fl1})
		c.fl1 = nil
	}
	for seq, fl := range c.flMore {
		if seq <= ack {
			done = append(done, rel{seq, fl})
			delete(c.flMore, seq)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].seq < done[j].seq })
	c.mu.Unlock()
	for _, r := range done {
		r.fl.released.Push(struct{}{})
	}
}

// handleFin records the peer's final seq and closes the inbox once
// everything before it was delivered.
func (c *Conn) handleFin(finSeq uint64) {
	c.mu.Lock()
	c.finSeq = finSeq
	closeNow := c.recvNext >= finSeq
	c.mu.Unlock()
	if closeNow {
		c.inbox.Close()
	}
}

// Close sends a best-effort FIN and releases local resources. In-flight
// receives drain; subsequent Sends fail with ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	finSeq := c.sendNext + 1
	c.mu.Unlock()
	// Best-effort: a lost FIN leaves the remote conn to be torn down by its
	// owner; data integrity never depends on FIN delivery.
	c.mux.sendFrame(c.peer, kindFin, !c.theirs, c.id, finSeq, 0, nil, 0)
	c.teardown(ErrClosed, true)
	return nil
}

// fail marks the conn broken.
func (c *Conn) fail(err error) {
	c.teardown(err, true)
}

// teardown releases queues and unregisters from the mux.
func (c *Conn) teardown(err error, unregister bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if err != ErrClosed {
		c.broken = err
	}
	type rel struct {
		seq uint64
		fl  *inflight
	}
	var waiters []rel
	if c.fl1 != nil {
		waiters = append(waiters, rel{c.flSeq, c.fl1})
		c.fl1 = nil
	}
	for seq, fl := range c.flMore {
		waiters = append(waiters, rel{seq, fl})
		delete(c.flMore, seq)
	}
	sort.Slice(waiters, func(i, j int) bool { return waiters[i].seq < waiters[j].seq })
	tokWait := c.tokWait
	c.mu.Unlock()

	final := err
	if final == nil {
		final = ErrClosed
	}
	for _, w := range waiters {
		w.fl.released.Push(final)
	}
	if tokWait != nil {
		tokWait.Close()
	}
	c.inbox.Close()

	if unregister {
		key := connKey{c.peer, c.id, c.theirs}
		c.mux.mu.Lock()
		delete(c.mux.conns, key)
		c.mux.dead[key] = true
		c.mux.mu.Unlock()
	}
}
