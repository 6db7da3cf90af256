// Control-plane resilience: the client-side call policy (deadline, bounded
// retries, deterministic backoff jitter), the typed error taxonomy for
// broker replies, and degraded-mode selection over the cached directory.
//
// The zero CallPolicy is the legacy behavior — one blocking exchange, no
// timer, no extra RPCs, no random draws — so static deployments that never
// set a policy keep byte-identical event streams.

package overlay

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/transport"
)

// Typed control-plane errors. ErrBrokerDown (client.go) remains the
// transport-level classification; these refine what the broker itself said.
var (
	// ErrCallTimeout marks a control RPC that exhausted its per-call
	// deadline (CallPolicy.Timeout). Broker-destined timeouts also match
	// ErrBrokerDown.
	ErrCallTimeout = errors.New("overlay: call timed out")
	// ErrBadReply marks a reply of the wrong message kind — a protocol
	// bug or a truncated exchange, not an unreachable broker.
	ErrBadReply = errors.New("overlay: bad reply")
	// ErrRegistrationRefused marks a register exchange the broker
	// answered with a refusal.
	ErrRegistrationRefused = errors.New("overlay: registration refused")
	// ErrNoCandidates maps the broker-side core.ErrNoCandidates: the
	// directory held no eligible peer (empty, or everything excluded).
	ErrNoCandidates = errors.New("overlay: no candidate peers")
	// ErrInfeasible maps core.ErrInfeasible: candidates existed but none
	// satisfied the request's deadline/budget.
	ErrInfeasible = errors.New("overlay: no peer satisfies deadline/budget")
	// ErrModelUnknown marks a selection request naming a model the broker
	// has not registered.
	ErrModelUnknown = errors.New("overlay: unknown selection model")
)

// selectionError maps a broker-side selection error string (the wire format
// carries only the string) back to a typed sentinel, so workload failure
// records can distinguish "no peers" from transport faults.
func selectionError(s string) error {
	switch {
	case s == core.ErrNoCandidates.Error():
		return ErrNoCandidates
	case strings.HasPrefix(s, core.ErrInfeasible.Error()):
		return ErrInfeasible
	case strings.HasPrefix(s, "overlay: unknown selection model"):
		return fmt.Errorf("%w: %s", ErrModelUnknown, strings.TrimPrefix(s, "overlay: unknown selection model "))
	default:
		return fmt.Errorf("overlay: selection: %s", s)
	}
}

// CallPolicy bounds a client's control RPCs. The zero value is the legacy
// single blocking exchange: no deadline, no retries, no fallback — and no
// extra virtual-time events or random draws, which is what keeps static
// scenarios byte-identical to the pre-policy harness.
type CallPolicy struct {
	// Timeout is the whole-call deadline per attempt (dial + send +
	// reply). Zero waits forever (legacy).
	Timeout time.Duration
	// Retries is how many times a failed call is re-attempted (total
	// attempts = Retries+1). Zero means one attempt.
	Retries int
	// Backoff is the sleep before the first retry; it doubles per retry.
	// Each sleep is jittered to 75%–125% by a draw from the node's seed
	// stream, so concurrent retriers desynchronize deterministically.
	Backoff time.Duration
	// MaxBackoff caps the doubled backoff; zero means uncapped.
	MaxBackoff time.Duration
	// Degrade enables graceful degradation: the client keeps its last
	// Discover result and falls back to local selection over the cached
	// advertisements when the broker cannot answer (unreachable, timed
	// out, or freshly restarted with an empty directory).
	Degrade bool
}

// DefaultCallPolicy is the resilience profile fault scenarios run with:
// a 10s deadline, three retries backing off 2s→4s→8s (jittered), and
// degraded-mode selection.
func DefaultCallPolicy() CallPolicy {
	return CallPolicy{
		Timeout:    10 * time.Second,
		Retries:    3,
		Backoff:    2 * time.Second,
		MaxBackoff: 16 * time.Second,
		Degrade:    true,
	}
}

// Selection is one selection call's detailed outcome.
type Selection struct {
	// Peers are the selected peer hostnames, best first.
	Peers []string
	// Degraded reports that the broker could not answer and the peers came
	// from the client's cached directory instead.
	Degraded bool
	// Retries counts the extra call attempts this selection spent.
	Retries int
}

// resilience is the client's fault-handling state: cached directory and
// audit counters. All fields are guarded for -race tests; under the
// serialized simulation dispatcher contention never happens.
type resilience struct {
	mu  sync.Mutex
	dir []jxta.Advertisement

	retries  atomic.Int64
	degraded atomic.Int64
}

// setDir replaces the cached directory with advs, taking ownership: the
// slice is shared read-only from here on (see Client.Discover).
func (r *resilience) setDir(advs []jxta.Advertisement) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dir = advs
}

// snapshotDir returns the cached directory (shared slice; callers only
// read it).
func (r *resilience) snapshotDir() []jxta.Advertisement {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dir
}

// Resilience reports the client's cumulative fault-handling counters:
// extra call attempts spent and selections answered from the cached
// directory.
func (c *Client) Resilience() (retries, degraded int64) {
	return c.res.retries.Load(), c.res.degraded.Load()
}

// callOnce performs one request/response exchange on a fresh conn, bounded
// by timeout (zero = unbounded). The timer closes the conn, which unblocks
// both the send and the receive leg; the returned flag reports whether the
// deadline fired.
func (c *Client) callOnce(to transport.Addr, payload []byte, timeout time.Duration) ([]byte, bool, error) {
	conn, err := c.ctlMux.Dial(to)
	if err != nil {
		return nil, false, err
	}
	defer conn.Close()
	var timedOut atomic.Bool
	if timeout > 0 {
		t := c.host.AfterFunc(timeout, func() {
			timedOut.Store(true)
			conn.Close()
		})
		defer t.Stop()
	}
	if err := conn.Send(payload); err != nil {
		return nil, timedOut.Load(), err
	}
	msg, err := conn.Recv()
	if err != nil {
		return nil, timedOut.Load(), err
	}
	return msg.Payload, false, nil
}

// callRetried runs the client's CallPolicy over callOnce: bounded
// re-attempts with doubling, jittered backoff. The returned count is the
// retries spent (0 when the first attempt succeeded). Failures are
// classified: a deadline expiry matches ErrCallTimeout, any broker-destined
// failure matches ErrBrokerDown, and failures to other peers return
// unwrapped (an instant message to a dead peer is not a broker fault).
func (c *Client) callRetried(to transport.Addr, payload []byte) ([]byte, int, error) {
	pol := c.cfg.Call
	attempts := pol.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	backoff := pol.Backoff
	var lastErr error
	lastTimeout := false
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.res.retries.Add(1)
			if backoff > 0 {
				f := 0.75 + 0.5*c.host.Rand().Float64()
				c.host.Sleep(time.Duration(float64(backoff) * f))
				backoff *= 2
				if pol.MaxBackoff > 0 && backoff > pol.MaxBackoff {
					backoff = pol.MaxBackoff
				}
			}
		}
		reply, timedOut, err := c.callOnce(to, payload, pol.Timeout)
		if err == nil {
			return reply, attempt, nil
		}
		lastErr, lastTimeout = err, timedOut
	}
	retries := attempts - 1
	switch {
	case lastTimeout && to == c.broker:
		return nil, retries, fmt.Errorf("%w: %w: %v", ErrBrokerDown, ErrCallTimeout, lastErr)
	case lastTimeout:
		return nil, retries, fmt.Errorf("%w: %v", ErrCallTimeout, lastErr)
	case to == c.broker:
		return nil, retries, fmt.Errorf("%w: %v", ErrBrokerDown, lastErr)
	default:
		return nil, retries, lastErr
	}
}

// SelectDetailed is SelectPeersFrom with the full outcome: the selected
// peers plus whether the pick was degraded and how many retries it cost.
// When the broker cannot answer — transport failure, deadline expiry, or a
// cold post-restart directory reporting no candidates — and the policy
// enables degradation, the client picks locally from its cached directory
// (best CPU score first) and the selection is counted degraded rather than
// failed. A no-candidates reply additionally triggers a best-effort
// re-registration, restoring the client's own directory entry after a
// broker restart wiped it.
func (c *Client) SelectDetailed(model string, req core.Request, max int, preferred, exclude []string) (Selection, error) {
	sreq := selectReq{
		Model:      model,
		Kind:       byte(req.Kind),
		SizeBytes:  req.SizeBytes,
		WorkUnits:  req.WorkUnits,
		MaxResults: max,
		Preferred:  preferred,
		Exclude:    append([]string{c.host.Name()}, exclude...),
	}
	reply, retries, err := c.callRetried(c.broker, sreq.encode())
	sel := Selection{Retries: retries}
	if err != nil {
		if peers := c.degradedPick(max, exclude); peers != nil {
			sel.Peers, sel.Degraded = peers, true
			c.res.degraded.Add(1)
			return sel, nil
		}
		return sel, err
	}
	kind, d, err := kindOf(reply)
	if err != nil || kind != mtSelectResult {
		return sel, fmt.Errorf("%w: select", ErrBadReply)
	}
	res, err := decodeSelectResult(d)
	if err != nil {
		return sel, err
	}
	if res.Err != "" {
		serr := selectionError(res.Err)
		if errors.Is(serr, ErrNoCandidates) {
			if peers := c.degradedPick(max, exclude); peers != nil {
				// The broker answered but knows no peers — it likely
				// restarted cold. Re-register (best-effort) so our own
				// entry returns, and serve this pick from the cache.
				if rerr := c.register(); rerr != nil {
					_ = rerr
				}
				sel.Peers, sel.Degraded = peers, true
				c.res.degraded.Add(1)
				return sel, nil
			}
		}
		return sel, serr
	}
	sel.Peers = res.Peers
	return sel, nil
}

// degradedPick selects up to max peers from the cached directory, best CPU
// score first (ties by name), excluding the client itself and the given
// hostnames. Returns nil — "cannot degrade" — when degradation is disabled
// or the cache yields no eligible peer.
func (c *Client) degradedPick(max int, exclude []string) []string {
	if !c.cfg.Call.Degrade {
		return nil
	}
	dir := c.res.snapshotDir()
	if len(dir) == 0 {
		return nil
	}
	out := make(map[string]bool, len(exclude)+1)
	out[c.host.Name()] = true
	for _, e := range exclude {
		out[e] = true
	}
	type cand struct {
		name  string
		score float64
	}
	var cands []cand
	for _, a := range dir {
		if out[a.Name] {
			continue
		}
		score := 1.0
		if v := a.Attr(jxta.AttrCPUScore); v != "" {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				score = f
			}
		}
		cands = append(cands, cand{a.Name, score})
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].name < cands[j].name
	})
	if max > 0 && len(cands) > max {
		cands = cands[:max]
	}
	peers := make([]string, len(cands))
	for i, cd := range cands {
		peers[i] = cd.name
	}
	return peers
}

// cachedAddr returns the cached transfer address of a named peer, if
// degradation is enabled and the directory holds it.
func (c *Client) cachedAddr(peer string) (transport.Addr, bool) {
	if !c.cfg.Call.Degrade {
		return "", false
	}
	for _, a := range c.res.snapshotDir() {
		if a.Name == peer && a.Addr != "" {
			return transport.Addr(a.Addr), true
		}
	}
	return "", false
}

// BootPeerWith is BootPeer with an explicit client configuration — the
// fault-scenario boot path, where joining peers carry a CallPolicy. The
// conn-id space is made unique to this boot instant (see FreshConnIDs)
// whatever else the config says, and the boot protocol is BootPeer's:
// bind + register, then the initial stats report, tearing down on failure.
func BootPeerWith(host transport.Host, broker transport.Addr, cfg ClientConfig) (*Client, error) {
	cfg.Pipe.FirstID = uint64(host.Now().UnixNano())
	c := NewClient(host, broker, cfg)
	if err := c.Start(); err != nil {
		return nil, err
	}
	if cfg.BatchBoot {
		// The batched register frame already carried the initial stats.
		return c, nil
	}
	if err := c.ReportStats(); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}
