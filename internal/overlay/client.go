package overlay

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/pipe"
	"peerlab/internal/task"
	"peerlab/internal/transfer"
	"peerlab/internal/transport"
)

// Client errors.
var (
	ErrNotRegistered = errors.New("overlay: client not registered")
	ErrPeerUnknown   = errors.New("overlay: peer not found in directory")
	ErrTaskRejected  = errors.New("overlay: task rejected by peer")
	ErrBrokerDown    = errors.New("overlay: broker unreachable")
)

// ClientConfig tunes a SimpleClient.
type ClientConfig struct {
	// CPUScore advertises the node's relative compute speed (default 1).
	CPUScore float64
	// MaxQueue bounds the local executor queue (default 16).
	MaxQueue int
	// FailEvery injects a failure every Nth executed task (0 = never).
	FailEvery int
	// Pipe tunes reliable pipes.
	Pipe pipe.Options
	// Call bounds control RPCs (deadline, retries, backoff, degraded-mode
	// selection). The zero value is the legacy single blocking exchange —
	// see CallPolicy.
	Call CallPolicy
	// BatchBoot registers through the batched boot frame: registration and
	// the initial stats report in ONE control RPC instead of two. The
	// broker ends up in the same state, but the control-plane event count
	// halves — so this is scale-gating, not a default: golden paths keep
	// the legacy two-exchange boot and their event streams byte-identical.
	BatchBoot bool
	// Sender tunes the client's transfer sender (e.g. Pipelined). The zero
	// value is the paper's stop-and-wait protocol.
	Sender transfer.SenderOptions
	// AcceptFile decides on inbound petitions; nil accepts all.
	AcceptFile func(name string, size, parts int, from string) (bool, string)
	// OnFile observes completed inbound transfers.
	OnFile func(transfer.Received)
	// OnInstant observes inbound instant messages.
	OnInstant func(from, text string)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.CPUScore <= 0 {
		c.CPUScore = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	return c
}

// Client is a SimpleClient edge peer: it registers with a broker, serves
// file receptions and task executions, and offers the overlay primitives
// (discovery, selection, file transmission, task submission, instant
// messaging) to the application.
type Client struct {
	host   transport.Host
	broker transport.Addr
	cfg    ClientConfig

	ctlMux   *pipe.Mux
	xferMux  *pipe.Mux
	sender   *transfer.Sender
	receiver *transfer.Receiver
	exec     *task.Executor

	registered atomic.Bool
	nextTaskID atomic.Uint64
	msgsIn     atomic.Int64
	msgsOut    atomic.Int64

	// res is the fault-handling state: the cached directory degraded
	// selection falls back to, and the retry/degradation counters.
	res resilience
}

// NewClient builds a client on host homed to the given broker address.
// Call Start to bind services and register.
func NewClient(host transport.Host, broker transport.Addr, cfg ClientConfig) *Client {
	return &Client{host: host, broker: broker, cfg: cfg.withDefaults()}
}

// FreshConnIDs returns pipe options whose conn-id space is unique to this
// boot instant. A client that reboots on the same node (churn rejoin) must
// not reuse its previous incarnation's conn ids: long-lived remote muxes —
// the broker's above all — tombstone every conn they have torn down, so a
// reused id's first message is silently dropped as a stale retransmit and
// the rebooted client can never register. Conn ids are varint-encoded;
// first-boot clients keep the default zero-based space so static
// deployments' frames stay byte-identical.
func FreshConnIDs(host transport.Host) pipe.Options {
	return pipe.Options{FirstID: uint64(host.Now().UnixNano())}
}

// BootPeer runs the full (re)boot protocol of a churn peer's client: a
// fresh conn-id space, service binding and registration, and the initial
// stats report that seeds the broker's view. Both the experiment harness
// and the public facade boot joining peers through it, so the rejoin
// protocol cannot drift between them.
func BootPeer(host transport.Host, broker transport.Addr, cpuScore float64) (*Client, error) {
	c := NewClient(host, broker, ClientConfig{
		CPUScore: cpuScore,
		Pipe:     FreshConnIDs(host),
	})
	if err := c.Start(); err != nil {
		return nil, err
	}
	if err := c.ReportStats(); err != nil {
		// Never hand back a half-booted client: it is already registered
		// and serving, and a caller that drops it on error would leak a
		// live incarnation holding the node's service endpoints.
		c.Stop()
		return nil, err
	}
	return c, nil
}

// BootSpec names one client of a BootPeers wave.
type BootSpec struct {
	// Host is the node the client lives on.
	Host transport.Host
	// Config tunes the client. BatchBoot is forced on: the wave exists to
	// cut the boot to one control RPC per peer.
	Config ClientConfig
}

// BootPeers boots a wave of clients concurrently: one boot process per
// spec, admitted through one batch when the spawner supports it, each
// registering through the batched boot frame (one control RPC per peer —
// no separate ReportStats; the frame carries the initial stats). The
// broker's accept loop drains the resulting same-instant dial burst into
// coalesced handler admissions, so a 64k wave costs 64k control RPCs
// instead of 128k serialized ones.
//
// On any failure the whole wave is stopped — BootPeer's no-half-booted-
// client rule, wave-wide — and the lowest-index failure is returned.
// Clients come back in spec order.
func BootPeers(spawner transport.Host, broker transport.Addr, specs []BootSpec) ([]*Client, error) {
	clients := make([]*Client, len(specs))
	errs := make([]error, len(specs))
	join := spawner.NewQueue()
	fns := make([]func(), len(specs))
	for i, sp := range specs {
		i := i
		cfg := sp.Config
		cfg.BatchBoot = true
		c := NewClient(sp.Host, broker, cfg)
		clients[i] = c
		fns[i] = func() {
			errs[i] = c.Start()
			join.Push(nil)
		}
	}
	if bs, ok := spawner.(transport.BatchSpawner); ok {
		bs.GoBatch(fns)
	} else {
		for _, fn := range fns {
			spawner.Go(fn)
		}
	}
	for range specs {
		if _, err := join.Pop(); err != nil {
			return nil, err
		}
	}
	for i, bootErr := range errs {
		if bootErr == nil {
			continue
		}
		for j, c := range clients {
			if errs[j] == nil {
				c.Stop()
			}
		}
		return nil, fmt.Errorf("overlay: boot %s: %w", specs[i].Host.Name(), bootErr)
	}
	return clients, nil
}

// Start binds the client's services, starts its executor and receiver, and
// registers with the broker.
func (c *Client) Start() error {
	ctlEP, err := c.host.Endpoint(ServiceClient)
	if err != nil {
		return fmt.Errorf("overlay: client bind: %w", err)
	}
	xferEP, err := c.host.Endpoint(ServiceTransfer)
	if err != nil {
		return fmt.Errorf("overlay: transfer bind: %w", err)
	}
	c.ctlMux = pipe.NewMux(c.host, ctlEP, c.cfg.Pipe)
	c.xferMux = pipe.NewMux(c.host, xferEP, c.cfg.Pipe)
	c.sender = transfer.NewSender(c.host, c.xferMux, c.cfg.Sender)
	c.receiver = transfer.NewReceiver(c.host, c.xferMux, transfer.ReceiverOptions{
		Accept: c.cfg.AcceptFile,
		OnFile: c.cfg.OnFile,
	})
	c.receiver.Start()
	c.exec = task.NewExecutor(c.host, task.Options{
		CPUScore:  c.cfg.CPUScore,
		MaxQueue:  c.cfg.MaxQueue,
		FailEvery: c.cfg.FailEvery,
	})
	c.exec.Start()
	c.host.Go(c.controlLoop)
	regErr := c.register()
	if regErr != nil {
		// Never leave a half-booted incarnation behind (BootPeer's rule,
		// applied at the source): the receiver, executor, control loop and
		// both muxes are already live, and a caller that drops the client
		// on error would leak them — the node's service endpoints stay
		// bound and the next boot on the node fails. Closing the muxes
		// unblocks the control loop's Accept and the receiver, so the
		// failed incarnation quiesces and frees its endpoints.
		c.Stop()
		return regErr
	}
	if c.cfg.Call.Degrade {
		// Seed the degraded-selection cache; later Discover calls (each
		// stats heartbeat refreshes it) keep it current. Best-effort: a
		// boot racing a blackout still succeeds once register did.
		if _, err := c.Discover(); err != nil {
			_ = err
		}
	}
	return nil
}

// register announces this client to the broker: the legacy single-frame
// registration, or — under BatchBoot — the batched frame that folds the
// initial stats report into the same exchange.
func (c *Client) register() error {
	adv := jxta.Advertisement{
		Kind: jxta.AdvPeer,
		ID:   jxta.NewID("peer", c.host.Name()),
		Name: c.host.Name(),
		Addr: string(transport.MakeAddr(c.host.Name(), ServiceTransfer)),
	}
	adv = adv.WithAttr(jxta.AttrCPUScore, strconv.FormatFloat(c.cfg.CPUScore, 'f', -1, 64))
	var payload []byte
	if c.cfg.BatchBoot {
		payload = registerBatch{Adv: adv, Stats: c.currentStats()}.encode()
	} else {
		payload = register{Adv: adv}.encode()
	}
	reply, err := c.call(c.broker, payload)
	if err != nil {
		return err
	}
	kind, d, err := kindOf(reply)
	if err != nil || kind != mtRegisterAck {
		return fmt.Errorf("%w: register", ErrBadReply)
	}
	ack, err := decodeRegisterAck(d)
	if err != nil || !ack.OK {
		return ErrRegistrationRefused
	}
	c.registered.Store(true)
	return nil
}

// call performs one request/response exchange under the client's
// CallPolicy (with the zero policy: a single unbounded exchange on a fresh
// conn). Failures come back classified — see callRetried.
func (c *Client) call(to transport.Addr, payload []byte) ([]byte, error) {
	reply, _, err := c.callRetried(to, payload)
	return reply, err
}

// controlLoop serves inbound control conns (tasks, instant messages).
func (c *Client) controlLoop() {
	for {
		conn, err := c.ctlMux.Accept()
		if err != nil {
			return
		}
		c.host.Go(func() { c.serveControl(conn) })
	}
}

func (c *Client) serveControl(conn *pipe.Conn) {
	defer conn.Close()
	msg, err := conn.Recv()
	if err != nil {
		return
	}
	kind, d, err := kindOf(msg.Payload)
	if err != nil {
		return
	}
	switch kind {
	case mtTaskSubmit:
		sub, err := decodeTaskSubmit(d)
		if err != nil {
			return
		}
		c.msgsIn.Add(1)
		done := c.host.NewQueue()
		submitErr := c.exec.Submit(sub.Task, func(r task.Result) { done.Push(r) })
		dec := taskDecision{TaskID: sub.Task.ID, Accepted: submitErr == nil}
		if submitErr != nil {
			dec.Reason = submitErr.Error()
		}
		// Queue state changed: let the broker know, so scheduling-based
		// selection plans with a fresh ready-time estimate. Runs as its own
		// process so the task reply is not delayed.
		c.host.Go(func() {
			if err := c.ReportStats(); err != nil {
				_ = err // best-effort
			}
		})
		if err := conn.Send(dec.encode()); err != nil || submitErr != nil {
			return
		}
		v, err := done.Pop()
		if err != nil {
			return
		}
		conn.Send(taskDone{Result: v.(task.Result)}.encode())
		c.host.Go(func() {
			if err := c.ReportStats(); err != nil {
				_ = err // best-effort
			}
		})
	case mtInstant:
		im, err := decodeInstant(d)
		if err != nil {
			return
		}
		c.msgsIn.Add(1)
		if c.cfg.OnInstant != nil {
			c.cfg.OnInstant(im.From, im.Text)
		}
		conn.Send(instantAckBytes())
	}
}

// ReportStats pushes the client's current load to the broker (clients do
// this after significant events; there is no eternal timer so simulations
// can quiesce).
func (c *Client) ReportStats() error {
	reply, err := c.call(c.broker, c.currentStats().encode())
	if err != nil {
		return err
	}
	if len(reply) == 0 || reply[0] != mtAck {
		return fmt.Errorf("%w: stats ack", ErrBadReply)
	}
	if c.cfg.Call.Degrade {
		// The heartbeat doubles as the directory refresh keeping the
		// degraded-selection cache current (Discover stores its result).
		if _, err := c.Discover(); err != nil {
			_ = err // best-effort: the cache just stays stale
		}
	}
	return nil
}

// currentStats snapshots the client's load as a stats report, consuming
// (swap-to-zero) the message counters exactly as the report on the wire
// would.
func (c *Client) currentStats() statsReport {
	return statsReport{
		Peer:      c.host.Name(),
		InboxLen:  int(c.msgsIn.Swap(0)),
		OutboxLen: int(c.msgsOut.Swap(0)),
		QueueLen:  c.exec.QueueLen(),
		ReadyIn:   c.exec.ReadyIn(),
		CPUScore:  c.cfg.CPUScore,
	}
}

// Discover queries the broker's directory for peer advertisements. A
// successful result also refreshes the client's cached directory — the
// snapshot degraded selection falls back to when the broker is gone. The
// returned slice IS that cached directory, shared with the client and with
// later results (which reuse its strings and attributes): callers must only
// read it.
func (c *Client) Discover() ([]jxta.Advertisement, error) {
	reply, err := c.call(c.broker, discover{Kind: jxta.AdvPeer}.encode())
	if err != nil {
		return nil, err
	}
	kind, d, err := kindOf(reply)
	if err != nil || kind != mtDiscoverResult {
		return nil, fmt.Errorf("%w: discover", ErrBadReply)
	}
	res, err := decodeDiscoverResult(d, c.res.snapshotDir())
	if err != nil {
		return nil, err
	}
	c.res.setDir(res.Advs)
	return res.Advs, nil
}

// resolve returns the transfer address of a named peer. When the broker
// cannot answer — or answered from a cold post-restart directory that has
// not heard of the peer yet — a degrading client falls back to the cached
// advertisement's address: a possibly stale route is still better than
// failing a transfer the data plane could carry.
func (c *Client) resolve(peer string) (transport.Addr, error) {
	reply, err := c.call(c.broker, discover{Kind: jxta.AdvPeer, Name: peer}.encode())
	if err != nil {
		if addr, ok := c.cachedAddr(peer); ok {
			return addr, nil
		}
		return "", err
	}
	kind, d, err := kindOf(reply)
	if err != nil || kind != mtDiscoverResult {
		return "", fmt.Errorf("%w: discover", ErrBadReply)
	}
	res, err := decodeDiscoverResult(d, nil)
	if err != nil || len(res.Advs) == 0 {
		if addr, ok := c.cachedAddr(peer); ok {
			return addr, nil
		}
		return "", fmt.Errorf("%w: %q", ErrPeerUnknown, peer)
	}
	return transport.Addr(res.Advs[0].Addr), nil
}

// SendFile transmits a file to the named peer in `parts` parts and reports
// the outcome to the broker's statistics service.
func (c *Client) SendFile(peer string, f transfer.File, parts int) (transfer.Metrics, error) {
	addr, err := c.resolve(peer)
	if err != nil {
		return transfer.Metrics{}, err
	}
	m, sendErr := c.sender.Send(addr, f, parts)
	c.msgsOut.Add(int64(len(m.Parts) + 1))
	rep := reportTransfer{
		Peer:          peer,
		OK:            sendErr == nil,
		Cancelled:     sendErr != nil && !errors.Is(sendErr, transfer.ErrRejected),
		Bytes:         f.Size,
		Duration:      m.TransmissionTime(),
		PetitionDelay: m.PetitionDelay(),
	}
	if _, err := c.call(c.broker, rep.encode()); err != nil {
		// Statistics are best-effort; the transfer outcome stands.
		_ = err
	}
	return m, sendErr
}

// SendPieces transmits the pieces of f named by indices (positions in the
// canonical pieces-way split) to the named peer and reports the outcome to
// the broker's statistics service. The report travels the same
// origin-attributed path as whole-file sends, so a downloader that
// re-originates pieces it holds is credited as an originator by the
// broker's union registry with no new accounting machinery; Bytes counts
// only the pieces actually moved.
func (c *Client) SendPieces(peer string, f transfer.File, pieces int, indices []int) (transfer.Metrics, error) {
	addr, err := c.resolve(peer)
	if err != nil {
		return transfer.Metrics{}, err
	}
	m, sendErr := c.sender.SendPieces(addr, f, pieces, indices)
	c.msgsOut.Add(int64(len(m.Parts) + 1))
	rep := reportTransfer{
		Peer:          peer,
		OK:            sendErr == nil,
		Cancelled:     sendErr != nil && !errors.Is(sendErr, transfer.ErrRejected),
		Bytes:         m.TotalBytes,
		Duration:      m.TransmissionTime(),
		PetitionDelay: m.PetitionDelay(),
	}
	if _, err := c.call(c.broker, rep.encode()); err != nil {
		// Statistics are best-effort; the transfer outcome stands.
		_ = err
	}
	return m, sendErr
}

// ReportPieces publishes this peer's piece inventory and unchoke set into
// its broker advertisement, where the dissemination driver reads them back
// through Discover. Best-effort semantics are NOT wanted here: the caller
// decides a round's assignments from this state, so a failed report must
// surface (the driver then treats the peer as silent this round).
func (c *Client) ReportPieces(have []int, unchoked []string) error {
	rep := pieceReport{Peer: c.host.Name(), Have: have, Unchoked: unchoked}
	reply, err := c.call(c.broker, rep.encode())
	if err != nil {
		return err
	}
	if len(reply) == 0 || reply[0] != mtAck {
		return fmt.Errorf("%w: piece report ack", ErrBadReply)
	}
	return nil
}

// SubmitTask sends a task to the named peer, waits for the result, and
// reports acceptance/execution statistics to the broker.
func (c *Client) SubmitTask(peer string, t task.Task) (task.Result, error) {
	if t.ID == 0 {
		t.ID = c.nextTaskID.Add(1)
	}
	addr, err := c.resolve(peer)
	if err != nil {
		return task.Result{}, err
	}
	ctl := transport.MakeAddr(addr.Node(), ServiceClient)
	conn, err := c.ctlMux.Dial(ctl)
	if err != nil {
		return task.Result{}, err
	}
	defer conn.Close()
	c.msgsOut.Add(1)
	if err := conn.Send(taskSubmit{Task: t, From: c.host.Name()}.encode()); err != nil {
		c.reportTaskOutcome(peer, false, false, 0)
		return task.Result{}, fmt.Errorf("overlay: submit to %s: %w", peer, err)
	}
	reply, err := conn.Recv()
	if err != nil {
		c.reportTaskOutcome(peer, false, false, 0)
		return task.Result{}, fmt.Errorf("overlay: decision from %s: %w", peer, err)
	}
	kind, d, err := kindOf(reply.Payload)
	if err != nil || kind != mtTaskDecision {
		return task.Result{}, fmt.Errorf("overlay: bad decision reply from %s", peer)
	}
	dec, err := decodeTaskDecision(d)
	if err != nil {
		return task.Result{}, err
	}
	if !dec.Accepted {
		c.reportTaskOutcome(peer, false, false, 0)
		return task.Result{}, fmt.Errorf("%w: %s", ErrTaskRejected, dec.Reason)
	}
	reply, err = conn.Recv()
	if err != nil {
		c.reportTaskOutcome(peer, true, false, 0)
		return task.Result{}, fmt.Errorf("overlay: result from %s: %w", peer, err)
	}
	kind, d, err = kindOf(reply.Payload)
	if err != nil || kind != mtTaskDone {
		return task.Result{}, fmt.Errorf("overlay: bad result reply from %s", peer)
	}
	doneMsg, err := decodeTaskDone(d)
	if err != nil {
		return task.Result{}, err
	}
	res := doneMsg.Result
	spu := 0.0
	if t.WorkUnits > 0 && res.Elapsed > 0 {
		spu = res.Elapsed.Seconds() / t.WorkUnits
	}
	c.reportTaskOutcome(peer, true, res.OK, spu)
	return res, nil
}

func (c *Client) reportTaskOutcome(peer string, accepted, ok bool, spu float64) {
	rep := reportTask{Peer: peer, Accepted: accepted, OK: ok, SecondsPerUnit: spu}
	if _, err := c.call(c.broker, rep.encode()); err != nil {
		_ = err // best-effort statistics
	}
}

// SendInstant delivers a one-line message to the named peer and records the
// outcome in the broker's messaging statistics.
func (c *Client) SendInstant(peer, text string) error {
	addr, err := c.resolve(peer)
	if err != nil {
		return err
	}
	ctl := transport.MakeAddr(addr.Node(), ServiceClient)
	c.msgsOut.Add(1)
	reply, sendErr := c.call(ctl, instant{From: c.host.Name(), Text: text}.encode())
	ok := sendErr == nil && len(reply) > 0 && reply[0] == mtInstantAck
	rep := reportMessage{Peer: peer, OK: ok}
	if _, err := c.call(c.broker, rep.encode()); err != nil {
		_ = err // best-effort statistics
	}
	if !ok {
		return fmt.Errorf("overlay: instant to %s failed: %v", peer, sendErr)
	}
	return nil
}

// SelectPeers asks the broker's selection service to rank peers with the
// named model. Preferred carries the user's own ranking for the
// user-preference/quick-peer model.
func (c *Client) SelectPeers(model string, req core.Request, max int, preferred []string) ([]string, error) {
	return c.SelectPeersFrom(model, req, max, preferred, nil)
}

// SelectPeersFrom is SelectPeers with extra peers removed from candidacy (the
// requester itself is always excluded). Multi-source workloads use it to keep
// the control node out of peer↔peer sink selection. Broker-side selection
// failures come back as typed sentinels (ErrNoCandidates, ErrInfeasible,
// ErrModelUnknown); SelectDetailed additionally reports degradation and
// retry counts.
func (c *Client) SelectPeersFrom(model string, req core.Request, max int, preferred, exclude []string) ([]string, error) {
	sel, err := c.SelectDetailed(model, req, max, preferred, exclude)
	if err != nil {
		return nil, err
	}
	return sel.Peers, nil
}

// Name returns the client's node name — how the broker and other peers know
// it.
func (c *Client) Name() string { return c.host.Name() }

// Executor exposes the local task executor (for queue inspection).
func (c *Client) Executor() *task.Executor { return c.exec }

// Registered reports whether the client completed broker registration.
func (c *Client) Registered() bool { return c.registered.Load() }

// Stop tears the client down.
func (c *Client) Stop() {
	if c.exec != nil {
		c.exec.Stop()
	}
	if c.ctlMux != nil {
		c.ctlMux.Close()
	}
	if c.xferMux != nil {
		c.xferMux.Close()
	}
}
