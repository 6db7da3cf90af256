// Package transport defines the interfaces shared by the simulated network
// (internal/simnet) and the real-socket network (internal/realnet).
//
// Protocol code — pipes, the JXTA-like discovery layer, the overlay broker
// and clients — is written exclusively against these interfaces, so the same
// implementation runs on virtual time for experiments and on TCP for the
// cmd/ daemons and integration tests.
//
// The base service is an unreliable, message-oriented Endpoint: messages may
// be dropped (simnet models loss and failure-restart; realnet over TCP
// simply never drops) but are never corrupted or duplicated by the
// transport itself. Reliability is layered on top by internal/pipe.
package transport

import (
	"errors"
	"math/rand"
	"strings"
	"time"
)

// Addr identifies a service endpoint as "node/service", e.g.
// "planetlab1.hiit.fi/overlay".
type Addr string

// MakeAddr builds an Addr from a node name and service name.
func MakeAddr(node, service string) Addr {
	return Addr(node + "/" + service)
}

// Split returns the node and service components of the address. Unparseable
// addresses yield the whole string as node and an empty service.
func (a Addr) Split() (node, service string) {
	s := string(a)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// Node returns the node component of the address.
func (a Addr) Node() string {
	n, _ := a.Split()
	return n
}

// Service returns the service component of the address.
func (a Addr) Service() string {
	_, s := a.Split()
	return s
}

// Message is one datagram handed to an Endpoint.
//
// Buffer ownership: Endpoint.Send hands its payload to the transport, and
// the sender must not modify it afterwards (simnet holds the very slice
// until delivery). A delivered Payload belongs to the receiver: each sent
// buffer is delivered at most once (simnet delivers the slice it was given;
// realnet copies out of its read buffer), and the transport never touches
// it again, so the receiver may keep or alias it without copying.
type Message struct {
	From    Addr
	To      Addr
	Payload []byte
	// Size is the number of bytes the message occupies on the wire. It is
	// at least len(Payload); the transfer engine sends file parts with a
	// small real payload and a large Size so that simulating a 100 Mb part
	// does not allocate 100 MB.
	Size int
}

// Common transport errors.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrTimeout     = errors.New("transport: receive timeout")
	ErrUnknownAddr = errors.New("transport: unknown address")
)

// Endpoint is an unreliable, message-oriented network endpoint bound to one
// "node/service" address.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() Addr
	// Send transmits payload to the destination. It blocks for the
	// serialization time of the message on the sender's uplink (virtual time
	// under simnet). Delivery is not guaranteed.
	Send(to Addr, payload []byte) error
	// SendSized is Send with an explicit wire size; size must be >=
	// len(payload). The simulated transport uses size for timing and loss;
	// the real transport transmits padding.
	SendSized(to Addr, payload []byte, size int) error
	// Recv blocks until a message arrives or the endpoint is closed.
	Recv() (Message, error)
	// RecvTimeout is Recv with a deadline relative to now. It returns
	// ErrTimeout if the deadline passes first.
	RecvTimeout(d time.Duration) (Message, error)
	// Close releases the endpoint; pending and future Recvs return
	// ErrClosed.
	Close() error
}

// Timer is a cancellable timer returned by Host.AfterFunc.
type Timer interface {
	// Stop cancels the timer, reporting whether it prevented the callback.
	Stop() bool
}

// Queue is a host-provided unbounded FIFO whose Pop parks the calling
// process in a scheduler-aware way. Protocol code must use Host.NewQueue
// for any producer/consumer handoff: blocking on a raw Go channel would
// stall the virtual clock under simnet.
type Queue interface {
	// Push appends v, waking the oldest waiter. Returns ErrClosed after
	// Close.
	Push(v any) error
	// Pop blocks until a value is available or the queue is closed.
	Pop() (any, error)
	// PopTimeout is Pop with a relative deadline; returns ErrTimeout.
	PopTimeout(d time.Duration) (any, error)
	// Len reports the number of buffered values.
	Len() int
	// Close wakes all waiters with ErrClosed; buffered values remain
	// poppable.
	Close()
}

// Host is one node's view of the network and of time. All blocking calls
// made through a Host park only the calling process; under simnet they
// consume no wall-clock time.
type Host interface {
	// Name returns the node name (e.g. a PlanetLab hostname).
	Name() string
	// Endpoint binds and returns the endpoint for a named service. Binding
	// the same service twice is an error.
	Endpoint(service string) (Endpoint, error)
	// Go runs fn as a new process attached to the host's scheduler.
	Go(fn func())
	// Now returns the current (virtual or real) time.
	Now() time.Time
	// Sleep parks the calling process for d.
	Sleep(d time.Duration)
	// AfterFunc runs fn in a new process after d.
	AfterFunc(d time.Duration, fn func()) Timer
	// Rand returns the host's deterministic random source. It must only be
	// used from one process at a time (protocol code on a host is
	// effectively single-threaded per service).
	Rand() *rand.Rand
	// NewQueue returns a scheduler-aware FIFO (see Queue).
	NewQueue() Queue
}

// BatchSpawner is an optional Host capability: spawn many processes in one
// scheduler admission, in slice order — exactly equivalent to calling Go in
// a loop, minus the per-spawn overhead. Large fan-outs (a workload starting
// one process per flow) probe for it and fall back to Go.
type BatchSpawner interface {
	GoBatch(fns []func())
}
