package overlay

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/pipe"
	"peerlab/internal/stats"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// BrokerConfig tunes a Broker.
type BrokerConfig struct {
	// AdvTTL is how long client advertisements stay valid (default 1h).
	AdvTTL time.Duration
	// CacheLimit bounds the advertisement directory (default 1024). Each
	// shard holds at most CacheLimit advertisements of the peers it owns:
	// any workload a single-shard directory serves without evicting is
	// served identically at any shard count (a shard never holds more than
	// the whole network would).
	CacheLimit int
	// Shards splits the advertisement directory and the statistics
	// registry into N peer-hash shards (default 1). Every per-peer event —
	// registration, stats report, transfer/task/message outcome — touches
	// only the shard owning that peer; whole-network reads (discovery,
	// selection, Snapshots) aggregate across shards in canonical order, so
	// results are identical at any shard count.
	Shards int
	// LeaseSweep, when positive, enables eager lease eviction: a broker
	// process sleeps until the earliest advertisement expiry (never waking
	// more often than every LeaseSweep) and sweeps expired entries from
	// every shard. Zero (the default) keeps expiry purely lazy — lookups
	// and queries filter dead leases, but their memory is reclaimed only on
	// the next Publish. Static deployments leave it zero so the sweep adds
	// no virtual-time events; churning deployments set it so departed
	// peers' leases are reclaimed even while no one re-registers.
	LeaseSweep time.Duration
	// Pipe tunes the broker's reliable pipes.
	Pipe pipe.Options
}

func (c BrokerConfig) withDefaults() BrokerConfig {
	if c.AdvTTL <= 0 {
		c.AdvTTL = time.Hour
	}
	if c.CacheLimit <= 0 {
		c.CacheLimit = 1024
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// shard owns one peer-hash slice of the broker's state: the advertisement
// cache entries and the statistics of the peers hashing to it.
type shard struct {
	cache    *jxta.Cache
	registry *stats.Registry
}

// Broker is the governor of the P2P network: it keeps the advertisement
// directory (rendezvous role), aggregates per-peer statistics from client
// reports and sender observations, and answers peer-selection requests with
// any registered model. State is split across cfg.Shards peer-hash shards
// so large slices do not serialize on one registry.
type Broker struct {
	host transport.Host
	cfg  BrokerConfig
	mux  *pipe.Mux

	shards    []*shard
	registry  *stats.Union
	selectors map[string]core.Selector

	// down, while set, makes the broker drop every request unanswered —
	// the fault injector's blackout switch. The mux stays bound (the
	// process is wedged, not the endpoint), so clients see their conns
	// reset rather than an unknown-address error.
	down atomic.Bool

	// Eager lease sweeping (see BrokerConfig.LeaseSweep). At most one
	// sweep timer is pending; lastSweep rate-limits re-arming to once per
	// LeaseSweep.
	sweepMu    sync.Mutex
	sweepTimer transport.Timer
	lastSweep  time.Time
	closed     bool

	// Elastic handler pool (see acceptLoop). work carries accepted conns to
	// parked resident handlers; idle counts handlers parked in work.Pop.
	// Because the scheduler serializes dispatch, a handler increments idle
	// and parks before any other process can run, so idle is always the
	// exact number of parked handlers when acceptLoop reads it.
	workMu sync.Mutex
	work   transport.Queue
	idle   int

	// ctlRPCs counts well-formed control frames received (including frames
	// dropped by a blackout). Boot-wave instrumentation reads it to prove
	// batched registration halves the per-peer RPC count.
	ctlRPCs atomic.Int64

	// Rank index (see rankindex.go): memoized full-directory rankings keyed
	// on request shape and validated against cache/registry mutation
	// versions.
	rankMu   sync.Mutex
	rankRing [rankIndexSlots]*rankEntry
	rankNext int
}

// brokerResidentHandlers caps how many idle handler processes stay parked
// awaiting the next conn. Handlers beyond the cap exit after serving; under
// a same-instant burst the accept loop still spawns one process per conn
// past the idle pool, exactly as the unpooled broker did.
const brokerResidentHandlers = 16

// NewBroker binds the broker service on host and starts serving.
func NewBroker(host transport.Host, cfg BrokerConfig) (*Broker, error) {
	cfg = cfg.withDefaults()
	ep, err := host.Endpoint(ServiceBroker)
	if err != nil {
		return nil, fmt.Errorf("overlay: broker bind: %w", err)
	}
	b := &Broker{
		host:      host,
		cfg:       cfg,
		mux:       pipe.NewMux(host, ep, cfg.Pipe),
		shards:    make([]*shard, cfg.Shards),
		selectors: make(map[string]core.Selector),
		work:      host.NewQueue(),
	}
	regs := make([]*stats.Registry, cfg.Shards)
	for i := range b.shards {
		b.shards[i] = &shard{
			cache:    jxta.NewCache(cfg.CacheLimit, host.Now),
			registry: stats.NewRegistry(host.Now),
		}
		regs[i] = b.shards[i].registry
	}
	b.registry = stats.NewUnion(regs, func(peer string) *stats.Registry {
		return b.shardOf(peer).registry
	})
	// The standard model lineup from the paper's Figure 6, plus the blind
	// baseline. User-preference models are built per request from the
	// preferences the requester sends.
	b.RegisterSelector(core.NewBlind())
	b.RegisterSelector(core.NewEconomic(core.EconomicConfig{}))
	b.RegisterSelector(core.NewSamePriority())
	host.Go(b.acceptLoop)
	return b, nil
}

// shardOf returns the shard owning a peer name (FNV-1a hash mod shard
// count — the ownership rule every handler routes by). The hash is inlined:
// this sits on the per-message path and runs once per candidate during
// selection, so it must not allocate.
func (b *Broker) shardOf(peer string) *shard {
	if len(b.shards) == 1 {
		return b.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(peer); i++ {
		h ^= uint32(peer[i])
		h *= 16777619
	}
	return b.shards[h%uint32(len(b.shards))]
}

// Addr returns the broker's pipe address.
func (b *Broker) Addr() transport.Addr { return b.mux.Addr() }

// Registry exposes the broker's whole-network statistics view (the
// experiment harness reads it directly; remote access goes through the
// selection service). Per-peer access routes to the owning shard.
func (b *Broker) Registry() *stats.Union { return b.registry }

// Shards reports the broker's shard count.
func (b *Broker) Shards() int { return len(b.shards) }

// Advertisements queries the sharded advertisement directory: per-shard
// results merged back into canonical (Name, ID) order.
func (b *Broker) Advertisements(kind jxta.AdvKind, name string) []jxta.Advertisement {
	if name != "" {
		// A named query touches only the owning shard.
		return b.shardOf(name).cache.Query(kind, name)
	}
	var out []jxta.Advertisement
	b.viewDirectory(kind, func(parts [][]jxta.Advertisement) {
		if n := directoryLen(parts); n > 0 {
			out = make([]jxta.Advertisement, 0, n)
		}
		mergeDirectory(parts, func(a *jxta.Advertisement) { out = append(out, *a) })
	})
	return out
}

// viewDirectory calls fn with every shard's whole-kind directory, in shard
// order and non-empty parts only, read in place from the caches' memos
// (jxta.Cache.View). fn runs holding every shard's cache lock, taken in
// shard order — the only place more than one is held — so it must not
// keep the parts or touch the directory.
func (b *Broker) viewDirectory(kind jxta.AdvKind, fn func(parts [][]jxta.Advertisement)) {
	parts := make([][]jxta.Advertisement, 0, len(b.shards))
	var view func(i int)
	view = func(i int) {
		if i == len(b.shards) {
			fn(parts)
			return
		}
		b.shards[i].cache.View(kind, func(p []jxta.Advertisement) {
			if len(p) > 0 {
				parts = append(parts, p)
			}
			view(i + 1)
		})
	}
	view(0)
}

// directoryLen counts the advertisements of a directory's parts.
func directoryLen(parts [][]jxta.Advertisement) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// mergeDirectory calls emit for every advertisement of parts, each already
// in canonical order, in global canonical order: a k-way merge (k = shard
// count, small) instead of re-sorting the whole directory. It consumes the
// parts slice.
func mergeDirectory(parts [][]jxta.Advertisement, emit func(*jxta.Advertisement)) {
	for len(parts) > 0 {
		min := 0
		for i := 1; i < len(parts); i++ {
			if jxta.CompareAdvertisements(parts[i][0], parts[min][0]) < 0 {
				min = i
			}
		}
		emit(&parts[min][0])
		if parts[min] = parts[min][1:]; len(parts[min]) == 0 {
			parts[min] = parts[len(parts)-1]
			parts = parts[:len(parts)-1]
		}
	}
}

// RegisterSelector installs (or replaces) a selection model under its name.
func (b *Broker) RegisterSelector(s core.Selector) {
	b.selectors[s.Name()] = s
}

// knownPeers counts live peer advertisements across shards — the value
// len(Peers()) reports, computed from per-shard O(1) counters instead of
// materializing and sorting the whole directory. Registration acks carry
// it, so a boot wave of N peers must not pay O(N log N) per ack.
func (b *Broker) knownPeers() int {
	n := 0
	for _, sh := range b.shards {
		n += sh.cache.LiveLen(jxta.AdvPeer)
	}
	return n
}

// Peers lists registered peer names (live advertisements only).
func (b *Broker) Peers() []string {
	advs := b.Advertisements(jxta.AdvPeer, "")
	names := make([]string, 0, len(advs))
	for _, a := range advs {
		names = append(names, a.Name)
	}
	return names
}

// SetDown makes the broker stop answering requests (true) or resume
// (false) without touching its state — the first half of a blackout. While
// down, every request conn is dropped unanswered; the conn teardown resets
// the caller, which then fails fast and retries under its CallPolicy.
func (b *Broker) SetDown(down bool) { b.down.Store(down) }

// Restart brings the broker back up after a blackout with a cold
// advertisement cache: every shard's directory is wiped, so registered
// peers vanish from discovery and selection until they re-register or
// their next stats report resurrects them. Statistics registries survive —
// the paper's broker persists its statistical records across restarts —
// and registered selection models are untouched.
func (b *Broker) Restart() {
	for _, sh := range b.shards {
		sh.cache.Clear()
	}
	b.down.Store(false)
}

// Close shuts the broker down.
func (b *Broker) Close() {
	b.sweepMu.Lock()
	b.closed = true
	if b.sweepTimer != nil {
		b.sweepTimer.Stop()
		b.sweepTimer = nil
	}
	b.sweepMu.Unlock()
	b.mux.Close()
}

// armSweep schedules the eager lease sweep at the earliest advertisement
// expiry across shards, never earlier than lastSweep+LeaseSweep (the sweep's
// rate limit under many staggered expiries). No-op when eager sweeping is
// disabled, the broker is closed, the directory is empty, or a sweep is
// already pending — a pending sweep is always soon enough, because every
// publish sets the maximal possible expiry (now+AdvTTL), so no later event
// can create an expiry earlier than the pending target. That makes the
// per-report hot path O(1): the shard scan runs only when arming from
// scratch. A static deployment with eager sweeping off schedules no timer
// at all and its virtual-time event stream is untouched.
func (b *Broker) armSweep() {
	if b.cfg.LeaseSweep <= 0 {
		return
	}
	b.sweepMu.Lock()
	if b.closed || b.sweepTimer != nil {
		b.sweepMu.Unlock()
		return
	}
	b.sweepMu.Unlock()
	var earliest time.Time
	any := false
	for _, sh := range b.shards {
		if e, ok := sh.cache.NextExpiry(); ok && (!any || e.Before(earliest)) {
			earliest, any = e, true
		}
	}
	if !any {
		return
	}
	b.sweepMu.Lock()
	defer b.sweepMu.Unlock()
	if b.closed || b.sweepTimer != nil {
		return
	}
	target := earliest
	if floor := b.lastSweep.Add(b.cfg.LeaseSweep); target.Before(floor) {
		target = floor
	}
	b.sweepTimer = b.host.AfterFunc(target.Sub(b.host.Now()), b.sweep)
}

// sweep evicts every expired lease from every shard, then re-arms for the
// next expiry if any leases remain. Eviction order is shard-index order and
// the expired set is a pure function of the clock, so sweeping is identical
// at any shard count.
func (b *Broker) sweep() {
	now := b.host.Now()
	b.sweepMu.Lock()
	b.sweepTimer = nil
	b.lastSweep = now
	b.sweepMu.Unlock()
	for _, sh := range b.shards {
		sh.cache.Sweep(now)
	}
	b.armSweep()
}

// acceptLoop dispatches accepted conns to an elastic pool of handler
// processes. A conn goes to a parked resident handler when one is idle and
// to a freshly spawned process otherwise, so a same-instant burst larger
// than the idle pool never serializes behind one handler's park points.
//
// Conns already buffered behind the first Accept — a same-instant dial
// burst the mux dispatcher has queued up — are drained into one admission
// batch before any handler is admitted. The drain is free of scheduling
// points (Accept on a non-empty queue returns without yielding), and the
// admission mechanics are the legacy ones: waking a parked handler
// (Queue.Push) and spawning a process (host.Go / GoBatch, proven
// event-equivalent to a Go loop) admit runnables in arrival order at the
// same point in the loop, and idle handlers cannot re-park mid-batch
// because nothing between admissions yields. The per-conn admission
// sequence the scheduler observes is therefore byte-identical to the
// one-at-a-time loop, and with it every golden figure.
func (b *Broker) acceptLoop() {
	var batch []*pipe.Conn
	var fns []func()
	for {
		conn, err := b.mux.Accept()
		if err != nil {
			b.work.Close()
			return
		}
		batch = append(batch[:0], conn)
		for b.mux.Pending() > 0 {
			c, err := b.mux.Accept()
			if err != nil {
				break
			}
			batch = append(batch, c)
		}
		// Parked handlers take the head of the batch in arrival order —
		// exactly the assignment the per-conn loop makes, since idle can
		// only shrink while admitting.
		b.workMu.Lock()
		wake := len(batch)
		if wake > b.idle {
			wake = b.idle
		}
		b.idle -= wake
		b.workMu.Unlock()
		for _, c := range batch[:wake] {
			// A parked handler exists (idle is exact, see Broker.idle), so
			// Push never buffers: the conn is handed straight to its waiter.
			_ = b.work.Push(c)
		}
		rest := batch[wake:]
		if len(rest) == 0 {
			continue
		}
		if bs, ok := b.host.(transport.BatchSpawner); ok && len(rest) > 1 {
			fns = fns[:0]
			for _, c := range rest {
				c := c
				fns = append(fns, func() { b.handlerLoop(c) })
			}
			bs.GoBatch(fns)
		} else {
			for _, c := range rest {
				c := c
				b.host.Go(func() { b.handlerLoop(c) })
			}
		}
	}
}

// handlerLoop serves conns until the resident pool is full or the broker
// closes: serve one conn, then park in the work queue for the next. Idle
// accounting must precede the park (and nothing between them may yield) so
// acceptLoop's read of idle matches the parked population exactly.
func (b *Broker) handlerLoop(conn *pipe.Conn) {
	for {
		b.serve(conn)
		b.workMu.Lock()
		if b.idle >= brokerResidentHandlers {
			b.workMu.Unlock()
			return
		}
		b.idle++
		b.workMu.Unlock()
		v, err := b.work.Pop()
		if err != nil {
			return
		}
		conn = v.(*pipe.Conn)
	}
}

// serve handles one request conn. Every exchange is request/response on a
// fresh conn, so a single Recv suffices.
func (b *Broker) serve(conn *pipe.Conn) {
	defer conn.Close()
	msg, err := conn.Recv()
	if err != nil {
		return
	}
	kind, d, err := kindOf(msg.Payload)
	if err != nil {
		return
	}
	b.ctlRPCs.Add(1)
	if b.down.Load() {
		// Blacked out: drop the request unanswered. The deferred Close
		// resets the conn, so the caller fails fast instead of waiting
		// out its full deadline.
		return
	}
	switch kind {
	case mtRegister:
		b.handleRegister(conn, d)
	case mtRegisterBatch:
		b.handleRegisterBatch(conn, d)
	case mtStatsReport:
		b.handleStatsReport(conn, d)
	case mtDiscover:
		b.handleDiscover(conn, d)
	case mtSelect:
		b.handleSelect(conn, d)
	case mtReportTransfer:
		b.handleReportTransfer(conn, d)
	case mtPieceReport:
		b.handlePieceReport(conn, d)
	case mtReportTask:
		b.handleReportTask(conn, d)
	case mtReportMessage:
		b.handleReportMessage(conn, d)
	}
}

func (b *Broker) handleRegister(conn *pipe.Conn, d *wire.Decoder) {
	req, err := decodeRegister(d)
	if err != nil {
		return
	}
	adv := req.Adv
	adv.Expires = b.host.Now().Add(b.cfg.AdvTTL)
	sh := b.shardOf(adv.Name)
	sh.cache.Publish(adv)
	ps := sh.registry.Peer(adv.Name)
	if cpu, err := strconv.ParseFloat(adv.Attr(jxta.AttrCPUScore), 64); err == nil && cpu > 0 {
		ps.SetCPUScore(cpu)
	}
	b.armSweep()
	ack := registerAck{OK: true, Broker: b.host.Name(), KnownPeers: b.knownPeers()}
	conn.Send(ack.encode())
}

// handleRegisterBatch serves the batched boot frame: the effects of
// handleRegister and handleStatsReport applied in that order under one
// exchange and one ack. The lease is published once with the batch
// instant's expiry (the legacy pair publishes twice, one RPC apart), which
// is why batched boot is scale-gated rather than a golden-path default.
func (b *Broker) handleRegisterBatch(conn *pipe.Conn, d *wire.Decoder) {
	req, err := decodeRegisterBatch(d)
	if err != nil {
		return
	}
	adv := req.Adv
	adv.Expires = b.host.Now().Add(b.cfg.AdvTTL)
	sh := b.shardOf(adv.Name)
	sh.cache.Publish(adv)
	ps := sh.registry.Peer(adv.Name)
	if cpu, err := strconv.ParseFloat(adv.Attr(jxta.AttrCPUScore), 64); err == nil && cpu > 0 {
		ps.SetCPUScore(cpu)
	}
	rep := req.Stats
	ps.SetQueues(rep.InboxLen, rep.OutboxLen)
	ps.SetQueueLen(rep.QueueLen)
	ps.SetReadyAt(b.host.Now().Add(rep.ReadyIn))
	if rep.CPUScore > 0 {
		ps.SetCPUScore(rep.CPUScore)
	}
	b.armSweep()
	ack := registerAck{OK: true, Broker: b.host.Name(), KnownPeers: b.knownPeers()}
	conn.Send(ack.encode())
}

// ControlRPCs reports how many well-formed control frames the broker has
// received since construction. A legacy boot costs two (register + stats
// report); a batched boot costs one.
func (b *Broker) ControlRPCs() int64 { return b.ctlRPCs.Load() }

func (b *Broker) handleStatsReport(conn *pipe.Conn, d *wire.Decoder) {
	rep, err := decodeStatsReport(d)
	if err != nil {
		return
	}
	sh := b.shardOf(rep.Peer)
	ps := sh.registry.Peer(rep.Peer)
	ps.SetQueues(rep.InboxLen, rep.OutboxLen)
	ps.SetQueueLen(rep.QueueLen)
	ps.SetReadyAt(b.host.Now().Add(rep.ReadyIn))
	if rep.CPUScore > 0 {
		ps.SetCPUScore(rep.CPUScore)
	}
	// A live report also renews the peer's advertisement lease. A reporting
	// peer whose lease already lapsed (a heartbeat delayed past the TTL
	// under churn) is resurrected, not dropped forever: the advertisement
	// is rebuilt exactly as registration builds it — name, content-derived
	// ID, transfer address from the reporting conn — so a live peer's
	// directory entry survives one late renewal. Static deployments never
	// hit this branch (their leases outlive the run).
	adv, ok := sh.cache.Lookup(jxta.NewID("peer", rep.Peer))
	if !ok {
		adv = jxta.Advertisement{
			Kind: jxta.AdvPeer,
			ID:   jxta.NewID("peer", rep.Peer),
			Name: rep.Peer,
			Addr: string(transport.MakeAddr(conn.Remote().Node(), ServiceTransfer)),
		}
		if rep.CPUScore > 0 {
			adv = adv.WithAttr(jxta.AttrCPUScore, strconv.FormatFloat(rep.CPUScore, 'f', -1, 64))
		}
	}
	adv.Expires = b.host.Now().Add(b.cfg.AdvTTL)
	sh.cache.Publish(adv)
	b.armSweep()
	conn.Send(ackBytes())
}

func (b *Broker) handleDiscover(conn *pipe.Conn, d *wire.Decoder) {
	req, err := decodeDiscover(d)
	if err != nil {
		return
	}
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	b.encodeDiscover(e, req)
	// Send only borrows the payload (the frame is the one copy), so the
	// pooled buffer goes out as is.
	conn.Send(e.Bytes())
}

// encodeDiscover appends the reply to req to e. A whole-kind query is
// encoded straight from the shard memos, with no intermediate slice; the
// bytes equal discoverResult{Advs: b.Advertisements(kind, name)}.encode().
func (b *Broker) encodeDiscover(e *wire.Encoder, req discover) {
	if req.Name != "" {
		discoverResult{Advs: b.Advertisements(req.Kind, req.Name)}.encodeTo(e)
		return
	}
	b.viewDirectory(req.Kind, func(parts [][]jxta.Advertisement) {
		e.Byte(mtDiscoverResult)
		e.Uint64(uint64(directoryLen(parts)))
		mergeDirectory(parts, func(a *jxta.Advertisement) { a.Encode(e) })
	})
}

func (b *Broker) handleSelect(conn *pipe.Conn, d *wire.Decoder) {
	req, err := decodeSelectReq(d)
	if err != nil {
		return
	}
	peers, addrs, serr := b.selectPeers(req)
	res := selectResult{Peers: peers, Addrs: addrs}
	if serr != nil {
		res.Err = serr.Error()
	}
	conn.Send(res.encode())
}

// candPool recycles candidate slices across selections: at thousands of
// registered peers the per-request candidate set is megabytes, and a
// selection-heavy swarm would otherwise spend a quarter of its time in GC.
var candPool = sync.Pool{New: func() any { return new([]core.Candidate) }}

// selectPeers runs the requested model over the registered peers. Models
// that assert purity (core.PureRanker) route through the rank index
// (rankindex.go), which replays a memoized full-directory ranking while the
// directory and every statistic are provably unchanged; everything else —
// the stateful blind cursor, per-request preference models, custom
// selectors — takes the scan path. Both paths return byte-identical
// results; the index only removes CPU work.
func (b *Broker) selectPeers(req selectReq) (peers, addrs []string, err error) {
	sel, ok := b.selectors[req.Model]
	if core.UsesPreferences(req.Model) {
		// Built per request from the user's own ranking.
		sel, ok = core.NewUserPreference(req.Preferred), true
	}
	if !ok {
		return nil, nil, fmt.Errorf("overlay: unknown selection model %q", req.Model)
	}
	creq := core.Request{
		Kind:      core.RequestKind(req.Kind),
		SizeBytes: req.SizeBytes,
		WorkUnits: req.WorkUnits,
		Now:       b.host.Now(),
	}
	if !core.UsesPreferences(req.Model) {
		if pure, isPure := sel.(core.PureRanker); isPure {
			if r, isRanker := sel.(core.Ranker); isRanker {
				return b.selectIndexed(req, creq, r, pure)
			}
		}
	}
	return b.selectScan(req, creq, sel)
}

// selectScan is the unindexed selection path: build the candidate set from
// scratch and run the model over it.
func (b *Broker) selectScan(req selectReq, creq core.Request, sel core.Selector) (peers, addrs []string, err error) {
	var excluded map[string]bool
	if len(req.Exclude) > 0 {
		excluded = make(map[string]bool, len(req.Exclude))
		for _, p := range req.Exclude {
			excluded[p] = true
		}
	}
	// The candidate set spans the whole network: advertisements merge from
	// every shard in canonical order, and each candidate's statistics come
	// from its owning shard, so a sharded broker ranks exactly as a single
	// one would.
	advs := b.Advertisements(jxta.AdvPeer, "")
	candsp := candPool.Get().(*[]core.Candidate)
	defer func() {
		clear(*candsp)
		*candsp = (*candsp)[:0]
		candPool.Put(candsp)
	}()
	cands := (*candsp)[:0]
	if cap(cands) < len(advs) {
		cands = make([]core.Candidate, 0, len(advs))
	}
	for _, a := range advs {
		if excluded[a.Name] {
			continue
		}
		cands = append(cands, core.Candidate{Snapshot: b.shardOf(a.Name).registry.Peer(a.Name).Snapshot()})
	}
	*candsp = cands

	var ranked []string
	if r, isRanker := sel.(core.Ranker); isRanker {
		ranked, err = r.Rank(creq, cands)
	} else {
		var one string
		one, err = sel.Select(creq, cands)
		ranked = []string{one}
	}
	if err != nil {
		return nil, nil, err
	}
	max := req.MaxResults
	if max <= 0 || max > len(ranked) {
		max = len(ranked)
	}
	ranked = ranked[:max]
	// Addresses only for the winners: advs is in canonical (Name, ID) order
	// and peer names are unique (one advertisement per peer), so a binary
	// search replaces the per-request name→addr map over the whole
	// directory.
	addrs = make([]string, len(ranked))
	for i, p := range ranked {
		if j, found := sort.Find(len(advs), func(k int) int { return strings.Compare(p, advs[k].Name) }); found {
			addrs[i] = advs[j].Addr
		}
	}
	return ranked, addrs, nil
}

func (b *Broker) handleReportTransfer(conn *pipe.Conn, d *wire.Decoder) {
	rep, err := decodeReportTransfer(d)
	if err != nil {
		return
	}
	ps := b.shardOf(rep.Peer).registry.Peer(rep.Peer)
	ps.RecordFileSent(rep.OK)
	ps.RecordTransferOutcome(rep.Cancelled)
	if rep.OK {
		ps.ObserveTransferRate(rep.Bytes, rep.Duration)
	}
	if rep.PetitionDelay > 0 {
		ps.ObservePetitionDelay(rep.PetitionDelay)
	}
	// Origin attribution: the originating peer's record (in its own shard)
	// counts the transmission launch it sourced — launch-level, mirroring
	// the sink-side RecordFileSent above. Under multi-source workloads the
	// sink-side statistics no longer imply "from the controller"; this is
	// the origin-side half of the picture. The source is taken from the
	// reporting conn's remote address — authoritative, and free of wire
	// format (hence timing) impact on the paper's figures.
	if from := conn.Remote().Node(); from != "" {
		b.shardOf(from).registry.Peer(from).RecordTransferOriginated(rep.OK, rep.Bytes)
	}
	conn.Send(ackBytes())
}

// handlePieceReport folds a disseminating peer's piece inventory and choke
// state into its advertisement attributes and renews the lease — the same
// resurrection discipline as a stats report, so a late report under churn
// rebuilds the entry instead of dropping it. Stats heartbeats preserve
// attributes on lease renewal (they Publish the looked-up advertisement),
// so inventory survives the renewal traffic between piece reports.
func (b *Broker) handlePieceReport(conn *pipe.Conn, d *wire.Decoder) {
	rep, err := decodePieceReport(d)
	if err != nil {
		return
	}
	sh := b.shardOf(rep.Peer)
	adv, ok := sh.cache.Lookup(jxta.NewID("peer", rep.Peer))
	if !ok {
		adv = jxta.Advertisement{
			Kind: jxta.AdvPeer,
			ID:   jxta.NewID("peer", rep.Peer),
			Name: rep.Peer,
			Addr: string(transport.MakeAddr(conn.Remote().Node(), ServiceTransfer)),
		}
	}
	var have strings.Builder
	for i, p := range rep.Have {
		if i > 0 {
			have.WriteByte(',')
		}
		have.WriteString(strconv.Itoa(p))
	}
	adv = adv.WithAttr(jxta.AttrPieces, have.String())
	adv = adv.WithAttr(jxta.AttrUnchoked, strings.Join(rep.Unchoked, ","))
	adv.Expires = b.host.Now().Add(b.cfg.AdvTTL)
	sh.cache.Publish(adv)
	b.armSweep()
	conn.Send(ackBytes())
}

func (b *Broker) handleReportTask(conn *pipe.Conn, d *wire.Decoder) {
	rep, err := decodeReportTask(d)
	if err != nil {
		return
	}
	ps := b.shardOf(rep.Peer).registry.Peer(rep.Peer)
	ps.RecordTaskOffer(rep.Accepted)
	if rep.Accepted {
		ps.RecordTaskExecution(rep.OK, rep.SecondsPerUnit)
	}
	conn.Send(ackBytes())
}

func (b *Broker) handleReportMessage(conn *pipe.Conn, d *wire.Decoder) {
	rep, err := decodeReportMessage(d)
	if err != nil {
		return
	}
	b.shardOf(rep.Peer).registry.Peer(rep.Peer).RecordMessage(rep.OK)
	conn.Send(ackBytes())
}
