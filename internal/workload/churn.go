// Churn runtime: Schedule (the pure, queryable view of a scenario's
// membership schedule) and Conductor (the virtual-time process that
// executes it). See the package comment's ownership rules for the split.

package workload

import (
	"log"
	"sort"
	"time"

	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/transport"
)

// scheduleOpen marks an up-interval with no scheduled leave: the peer stays
// up past every horizon.
const scheduleOpen = time.Duration(1<<63 - 1)

// interval is one up-interval [From, To): the peer is live at offset t when
// From <= t < To.
type interval struct{ from, to time.Duration }

// Schedule is the pure view of a churn schedule: per-peer membership
// intervals derived from the event list, queryable at any session offset.
// It never touches clients — executors use a Conductor for that — so the
// same Schedule answers both the runtime (who is up now?) and the post-hoc
// audit (was this selection stale?).
type Schedule struct {
	events     []scenario.ChurnEvent
	intervals  map[string][]interval
	departures int
}

// NewSchedule folds an event list into membership intervals. Events are
// applied in canonical order (scenario.SortChurnEvents) and idempotently: a
// join while up and a leave while down are no-ops, so redundant transitions
// (a site outage overlapping an individual leave) are harmless.
func NewSchedule(events []scenario.ChurnEvent) *Schedule {
	sorted := append([]scenario.ChurnEvent(nil), events...)
	scenario.SortChurnEvents(sorted)
	s := &Schedule{events: sorted, intervals: make(map[string][]interval)}
	open := make(map[string]time.Duration) // label -> current interval start
	up := make(map[string]bool)
	for _, e := range sorted {
		switch e.Kind {
		case scenario.ChurnJoin:
			if !up[e.Label] {
				up[e.Label] = true
				open[e.Label] = e.At
			}
		case scenario.ChurnLeave:
			if up[e.Label] {
				up[e.Label] = false
				s.intervals[e.Label] = append(s.intervals[e.Label], interval{open[e.Label], e.At})
				s.departures++
			}
		}
	}
	for label, live := range up {
		if live {
			s.intervals[label] = append(s.intervals[label], interval{open[label], scheduleOpen})
		}
	}
	return s
}

// Departures counts the up→down transitions of the whole schedule — the
// PeersDeparted figure of a churn run. It is schedule-derived, not runtime-
// observed, so it is identical at any worker or shard count by construction.
func (s *Schedule) Departures() int { return s.departures }

// Initial returns the labels up at offset 0, sorted.
func (s *Schedule) Initial() []string {
	var labels []string
	for label := range s.intervals {
		if s.LiveAt(label, 0) {
			labels = append(labels, label)
		}
	}
	sort.Strings(labels)
	return labels
}

// LiveAt reports whether the peer is up at session offset at. A peer the
// schedule never joins is never up: the Conductor boots only scheduled
// peers, and the query side must agree with the execution side — a
// trace-shaped schedule covering a subset of the catalog leaves the rest
// offline, and ResolveSources steers flows away from them.
func (s *Schedule) LiveAt(label string, at time.Duration) bool {
	for _, iv := range s.intervals[label] {
		if iv.from <= at && at < iv.to {
			return true
		}
	}
	return false
}

// DownThroughout reports whether the peer is down for the entire window
// [from, to] — no up-interval overlaps it. A negative from is clamped to 0.
// The staleness audit uses it: a peer down throughout [t-TTL, t] cannot
// have renewed its lease after t-TTL, so its advertisement is certainly
// expired at t and the broker must not hand it out.
func (s *Schedule) DownThroughout(label string, from, to time.Duration) bool {
	if from < 0 {
		from = 0
	}
	for _, iv := range s.intervals[label] {
		if iv.from <= to && from < iv.to {
			return false
		}
	}
	return true
}

// Conductor executes a churn schedule against live overlay clients: it
// boots the initial population, then runs the remaining joins and leaves as
// one virtual-time process. It owns the live-client map — executors resolve
// membership through ClientOf — and is safe under the serialized vtime
// dispatcher (at most one process touches the map at a time).
type Conductor struct {
	host       transport.Host
	schedule   *Schedule
	boot       func(label string) (*overlay.Client, error)
	clients    map[string]*overlay.Client
	start      time.Time
	renewEvery time.Duration
	horizon    time.Duration
	err        error
	// Logf receives the conductor's operator-visible warnings (a failed
	// churn join); nil falls back to the process default logger. Sweep
	// cells set it so every warning is attributed to its cell.
	Logf func(format string, args ...any)
}

// RenewalInterval is the lease-renewal heartbeat period for a broker lease
// TTL: renewals land several times inside every TTL window, which the
// churn staleness audit relies on (a live peer's lease must never lapse
// between heartbeats). Every conductor must derive its renewEvery from the
// TTL the broker actually runs with, through this one function.
func RenewalInterval(advTTL time.Duration) time.Duration { return advTTL / 3 }

// NewConductor builds a conductor over host's scheduler. boot creates and
// starts the client for a label (register + initial stats report included);
// it runs inside the simulation whenever the schedule joins that peer.
//
// renewEvery is the lease-renewal heartbeat (derive it with
// RenewalInterval): every renewEvery of virtual time (until horizon) each
// live client pushes a stats report, which renews its broker lease — the
// JXTA re-publish that keeps a *live* peer in the directory while departed
// peers age out. Zero disables the heartbeat (leases then only renew on
// registration and task traffic, so every lease expires one TTL after its
// peer's last report).
func NewConductor(host transport.Host, schedule *Schedule,
	renewEvery, horizon time.Duration,
	boot func(label string) (*overlay.Client, error)) *Conductor {
	return &Conductor{
		host:       host,
		schedule:   schedule,
		boot:       boot,
		clients:    make(map[string]*overlay.Client),
		renewEvery: renewEvery,
		horizon:    horizon,
	}
}

// BootInitial boots every peer up at session offset 0, in label order, and
// records the session start instant. Call it from the driver process before
// launching traffic, so no flow races the initial population's
// registrations.
func (c *Conductor) BootInitial() error {
	c.start = c.host.Now()
	for _, label := range c.schedule.Initial() {
		cl, err := c.boot(label)
		if err != nil {
			return err
		}
		c.clients[label] = cl
	}
	return nil
}

// Start spawns the schedule process: it sleeps from event to event and
// applies each transition idempotently — a leave stops and forgets the
// client, a join boots a fresh one (re-registering with the broker under a
// fresh lease). Transitions at offset 0 were BootInitial's job and are
// skipped.
func (c *Conductor) Start() {
	c.host.Go(func() {
		for _, e := range c.schedule.events {
			if e.At <= 0 {
				continue
			}
			if d := e.At - c.host.Now().Sub(c.start); d > 0 {
				c.host.Sleep(d)
			}
			c.apply(e)
		}
	})
	if c.renewEvery > 0 {
		c.host.Go(c.renewLoop)
	}
}

// renewLoop is the lease-renewal heartbeat process: every renewEvery it
// pushes a stats report for every live client, renewing their broker
// leases. Reports fan out as concurrent processes (spawned in label order,
// so the round is deterministic) and the round joins before the next tick:
// its virtual duration is one round-trip, not N of them — sequential
// renewals would exceed the TTL on slices of thousands of peers and lapse
// live leases mid-round. The loop ends at the horizon, so the simulation
// still quiesces (no eternal timers).
func (c *Conductor) renewLoop() {
	for t := c.renewEvery; t < c.horizon; t += c.renewEvery {
		if d := t - c.host.Now().Sub(c.start); d > 0 {
			c.host.Sleep(d)
		}
		labels := make([]string, 0, len(c.clients))
		for label := range c.clients {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		join := c.host.NewQueue()
		spawned := 0
		for _, label := range labels {
			cl := c.clients[label]
			if cl == nil {
				continue
			}
			spawned++
			c.host.Go(func() {
				if err := cl.ReportStats(); err != nil {
					_ = err // best-effort: the peer may have just departed
				}
				join.Push(nil)
			})
		}
		for i := 0; i < spawned; i++ {
			if _, err := join.Pop(); err != nil {
				return
			}
		}
	}
}

func (c *Conductor) apply(e scenario.ChurnEvent) {
	switch e.Kind {
	case scenario.ChurnLeave:
		if cl := c.clients[e.Label]; cl != nil {
			cl.Stop()
			delete(c.clients, e.Label)
		}
	case scenario.ChurnJoin:
		if c.clients[e.Label] != nil {
			return
		}
		cl, err := c.boot(e.Label)
		if err != nil {
			// Logged as well as recorded: a join firing after the driver
			// already sampled Err() would otherwise vanish silently.
			c.logf("workload: WARNING: churn join of %s failed: %v", e.Label, err)
			if c.err == nil {
				c.err = err
			}
			return
		}
		c.clients[e.Label] = cl
	}
}

// logf routes a warning through Logf, or the process default when unset.
func (c *Conductor) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ClientOf resolves a label to its currently running client, or nil while
// the peer is down — the live-membership hook executors plug into
// Env.ClientOf.
func (c *Conductor) ClientOf(label string) *overlay.Client { return c.clients[label] }

// StartedAt returns the session start instant BootInitial recorded;
// schedule offsets are relative to it.
func (c *Conductor) StartedAt() time.Time { return c.start }

// Err returns the first boot failure the schedule process hit (nil in
// healthy runs; a rejoin cannot fail on a simulated slice unless the broker
// is gone).
func (c *Conductor) Err() error { return c.err }

// ResolveSources returns a copy of flows with every peer-sourced flow whose
// source is scheduled down at the flow's start offset remapped to the next
// catalog peer (wrapping) scheduled live then — "whoever is online
// originates the traffic", the swarm regime where offline peers do not
// start transfers. A flow keeps its drawn source when no peer is live at
// its start (it will fail, and be recorded as such). Pure function of
// (flows, schedule, labels, startOf), so churn cells stay bit-reproducible.
func ResolveSources(flows []Flow, s *Schedule, labels []string, startOf func(Flow) time.Duration) []Flow {
	index := make(map[string]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	out := append([]Flow(nil), flows...)
	for i, f := range out {
		if f.Source == "" {
			continue
		}
		start := startOf(f)
		if s.LiveAt(f.Source, start) {
			continue
		}
		at, ok := index[f.Source]
		if !ok {
			continue
		}
		for step := 1; step <= len(labels); step++ {
			cand := labels[(at+step)%len(labels)]
			if s.LiveAt(cand, start) {
				out[i].Source = cand
				break
			}
		}
	}
	return out
}

// ChurnLaunch prepares a flow set for execution over churning membership.
// Stagger offsets are schedule-relative (zero = the conductor's start), but
// traffic launches elapsed later (initial boots, or a driver that slept
// mid-session): offsets are rebased so a flow whose slot already passed
// launches immediately, and sources are re-resolved against the membership
// scheduled at each flow's actual launch instant. Returns the resolved
// flows and the Env.StartOf launch-delay function — every churn executor
// (the experiment cells, the public facade) must wire launches through
// here, so the rebase rule cannot drift between them.
func ChurnLaunch(flows []Flow, s *Schedule, labels []string,
	stagger func(Flow) time.Duration, elapsed time.Duration) ([]Flow, func(Flow) time.Duration) {
	at := func(f Flow) time.Duration {
		if o := stagger(f); o > elapsed {
			return o
		}
		return elapsed
	}
	startOf := func(f Flow) time.Duration { return at(f) - elapsed }
	return ResolveSources(flows, s, labels, at), startOf
}

// Stagger returns a per-flow start-offset function spreading flow launches
// uniformly across the first staggerWindow of a churn horizon, derived from
// the same per-flow SplitMix64 streams as payload seeds (decorrelated by a
// fixed tag). Executors install it as Env.StartOf on churning scenarios so
// selections happen throughout the session — including after departed
// peers' leases expire — instead of all at virtual instant zero.
func Stagger(seed int64, horizon time.Duration) func(Flow) time.Duration {
	return func(f Flow) time.Duration {
		h := scenario.Mix64(uint64(FlowSeed(seed, f.Index)) ^ 0x57a6)
		frac := float64(h>>11) / float64(uint64(1)<<53)
		return time.Duration(frac * float64(horizon) * staggerWindow)
	}
}

// staggerWindow is the fraction of the horizon flow launches spread over;
// the tail fifth is left for in-flight transfers to finish before the
// session ends.
const staggerWindow = 0.8
