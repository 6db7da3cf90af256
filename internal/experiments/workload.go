// Workload runner: executes a flow set over a scenario on the parallel cell
// runner. Where the figure generators decompose into (scenario, peer, rep)
// cells with the control node as the sole traffic source, the workload
// runner's cells are (scenario, workload, rep): each repetition deploys its
// own slice and runs every flow of the workload as a concurrent simulation
// process — peer↔peer sources included, each calling the broker's selection
// service itself when its flow says so. Cell seeds and per-flow payload
// seeds derive via SplitMix64, so a report is bit-identical for a given seed
// at any worker or broker-shard count.
package experiments

import (
	"fmt"
	"time"

	"peerlab/internal/faults"
	"peerlab/internal/metrics"
	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// FlowRecord is the machine-readable result of one executed flow in one
// repetition.
type FlowRecord struct {
	Rep    int    `json:"rep"`
	Index  int    `json:"index"`
	Source string `json:"source"`
	Sink   string `json:"sink"`
	Model  string `json:"model,omitempty"`
	Bytes  int    `json:"bytes"`
	Parts  int    `json:"parts"`
	// Attempts counts transmission launches (>1 means the pipe layer
	// abandoned earlier launches and the flow was relaunched).
	Attempts            int     `json:"attempts"`
	PetitionSeconds     float64 `json:"petition_seconds"`
	TransmissionSeconds float64 `json:"transmission_seconds"`
	// Failed marks a flow a churning scenario recorded as failed (source
	// departed, sink gone mid-transfer, selection came up empty); Error
	// carries the cause. Static scenarios never set either — a failing
	// flow there aborts the run.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	// Degraded marks a sink picked from the source's cached directory
	// because the broker could not answer; Retries counts the extra
	// selection-call attempts the flow spent. Both stay zero outside fault
	// scenarios.
	Degraded bool `json:"degraded,omitempty"`
	Retries  int  `json:"retries,omitempty"`
	// Pieces counts the pieces this downloader received (dissemination
	// workloads; omitted elsewhere). Stalls counts the playback deadlines
	// it missed (streaming mode). ReOriginated marks a downloader that
	// also uploaded at least one piece it held — the sink-became-source
	// path the dissemination workloads exist to measure.
	Pieces       int  `json:"pieces,omitempty"`
	Stalls       int  `json:"stalls,omitempty"`
	ReOriginated bool `json:"reoriginated,omitempty"`
}

// WorkloadSummary aggregates a report's flows. The churn counters are zero
// (and omitted from JSON) on static scenarios.
type WorkloadSummary struct {
	Flows                   int     `json:"flows"`
	TotalBytes              int64   `json:"total_bytes"`
	Relaunched              int     `json:"relaunched"`
	MaxAttempts             int     `json:"max_attempts"`
	MeanTransmissionSeconds float64 `json:"mean_transmission_seconds"`
	MaxTransmissionSeconds  float64 `json:"max_transmission_seconds"`
	// FailedFlows counts flows recorded as failed under churn.
	FailedFlows int `json:"failed_flows,omitempty"`
	// PeersDeparted counts the schedule's up→down transitions across all
	// repetitions.
	PeersDeparted int `json:"peers_departed,omitempty"`
	// SelectionsStale counts model-selected sinks that were departed AND
	// whose advertisement lease had certainly expired at selection time
	// (down throughout the whole TTL window before the selection). The
	// broker filters expired leases from every candidate set, so this must
	// be zero — it is the lease machinery's audit, not a workload metric.
	SelectionsStale int `json:"selections_stale,omitempty"`
	// SelectionsLagged counts model-selected sinks that were departed at
	// selection time but still inside their lease window — the inherent
	// staleness a TTL'd directory admits, the figure churn studies care
	// about.
	SelectionsLagged int `json:"selections_lagged,omitempty"`
	// RetriesSpent sums the extra selection-call attempts across flows
	// (fault scenarios; zero elsewhere).
	RetriesSpent int `json:"retries_spent,omitempty"`
	// SelectionsDegraded counts flows whose sink came from the source's
	// cached directory because the broker could not answer.
	SelectionsDegraded int `json:"selections_degraded,omitempty"`
	// FlowsRecovered counts flows that completed despite control-plane
	// faults — a degraded selection or at least one selection retry. A
	// flow that merely relaunched its transmission is not recovered (that
	// is data-plane weather, counted in Relaunched).
	FlowsRecovered int `json:"flows_recovered,omitempty"`
	// BrokerDownSeconds is the fault plan's total broker-blackout time
	// (overlaps merged), summed across repetitions. Plan-derived, so it is
	// identical at any worker or shard count.
	BrokerDownSeconds float64 `json:"broker_down_seconds,omitempty"`
	// Dissemination counters, zero (and omitted) for the single-round
	// workloads. PiecesMoved counts piece deliveries — partial progress of
	// failed downloaders included, so a churn departure cannot silently
	// lose accounting. PeersReOriginated counts downloaders that uploaded
	// at least one piece; StalledFlows/TotalStalls score streaming
	// playback; Like/CrossPairBytes split the peer-pair byte matrix by
	// bandwidth class (fast half vs slow half of the catalog, control
	// pairs excluded) — the Legout clustering measurement.
	PiecesMoved       int   `json:"pieces_moved,omitempty"`
	PeersReOriginated int   `json:"peers_reoriginated,omitempty"`
	StalledFlows      int   `json:"stalled_flows,omitempty"`
	TotalStalls       int   `json:"total_stalls,omitempty"`
	LikePairBytes     int64 `json:"like_pair_bytes,omitempty"`
	CrossPairBytes    int64 `json:"cross_pair_bytes,omitempty"`
}

// WorkloadReport is RunWorkload's result: every flow of every repetition in
// (rep, flow-index) order, plus a summary.
type WorkloadReport struct {
	Workload string          `json:"workload"`
	Scenario string          `json:"scenario"`
	Reps     int             `json:"reps"`
	Flows    []FlowRecord    `json:"flows"`
	Summary  WorkloadSummary `json:"summary"`
}

// resolveWorkload picks the configured workload, the scenario's hint, or the
// controller-fanout default, in that order.
func resolveWorkload(cfg Config) (workload.Workload, error) {
	if !cfg.Workload.IsZero() {
		return cfg.Workload, nil
	}
	if cfg.Scenario.Workload != "" {
		return workload.Parse(cfg.Scenario.Workload)
	}
	return workload.ControllerFanout(), nil
}

// participants returns the peer labels a flow set touches, or nil (= boot
// the whole slice) when any flow resolves its sink through the selection
// service and therefore needs the full candidate set registered.
func participants(flows []workload.Flow) []string {
	seen := make(map[string]bool)
	var labels []string
	add := func(l string) {
		if l != "" && !seen[l] {
			seen[l] = true
			labels = append(labels, l)
		}
	}
	for _, f := range flows {
		if f.Sink == "" {
			return nil
		}
		add(f.Source)
		add(f.Sink)
	}
	return labels
}

// workloadCellResult is one repetition's records plus its churn and fault
// counters.
type workloadCellResult struct {
	recs       []FlowRecord
	departed   int
	stale      int
	lagged     int
	brokerDown float64
	// like/cross split a dissemination cell's pair matrix by bandwidth
	// class (zero for single-round workloads).
	like  int64
	cross int64
}

// RunWorkload executes cfg's workload over cfg's scenario, one cell per
// repetition, and returns the per-flow records in (rep, flow-index) order.
func RunWorkload(cfg Config) (*WorkloadReport, error) {
	cfg = cfg.withDefaults()
	w, err := resolveWorkload(cfg)
	if err != nil {
		return nil, err
	}
	cells, err := runCells(cfg, "workload:"+w.Name, cfg.Reps,
		func(rep int, cellCfg Config) (workloadCellResult, error) {
			return workloadCell(cellCfg, w, rep)
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: workload %s: %w", w.Name, err)
	}
	report := &WorkloadReport{Workload: w.Name, Scenario: cfg.Scenario.Name, Reps: cfg.Reps}
	for _, cell := range cells {
		report.Flows = append(report.Flows, cell.recs...)
	}
	report.Summary = summarize(report.Flows)
	for _, cell := range cells {
		report.Summary.PeersDeparted += cell.departed
		report.Summary.SelectionsStale += cell.stale
		report.Summary.SelectionsLagged += cell.lagged
		report.Summary.BrokerDownSeconds += cell.brokerDown
		report.Summary.LikePairBytes += cell.like
		report.Summary.CrossPairBytes += cell.cross
	}
	return report, nil
}

// rememberedHosts maps a scenario's Remembered labels — the "user memory"
// the quick-peer model consults — to hostnames, the Env.Preferred form.
func rememberedHosts(env *Env, sc scenario.Scenario) []string {
	hosts := make([]string, 0, len(sc.Remembered))
	for _, label := range sc.Remembered {
		if h := env.Host(label); h != "" {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// workloadCell deploys one repetition's slice and runs every flow of the
// workload as a concurrent simulation process. Churning scenarios route to
// churnWorkloadCell.
func workloadCell(cellCfg Config, w workload.Workload, rep int) (workloadCellResult, error) {
	flows := w.Flows(cellCfg.Scenario.Labels, cellCfg.Seed)
	if len(flows) == 0 {
		return workloadCellResult{}, fmt.Errorf("workload %s produced no flows", w.Name)
	}
	if w.Disseminate != nil {
		// The piece-level family runs the multi-round engine — on static and
		// churning scenarios alike — instead of the single-round executor.
		return disseminateCell(cellCfg, w, flows, rep)
	}
	if cellCfg.Scenario.Churn != nil {
		return churnWorkloadCell(cellCfg, flows, rep)
	}
	recs, err := envCell(cellCfg, participants(flows), func(env *Env, ctl *overlay.Client) ([]FlowRecord, error) {
		results, err := workload.Execute(workload.Env{
			Host:         env.Slice.Control,
			Control:      ctl,
			Clients:      env.Clients,
			HostOf:       env.Host,
			LabelOf:      env.Label,
			ExcludeSinks: []string{env.Slice.Control.Name()},
			Preferred:    rememberedHosts(env, cellCfg.Scenario),
			IdleGap:      cellCfg.IdleGap,
			Logf:         cellCfg.Logf,
		}, flows, cellCfg.Seed)
		if err != nil {
			return nil, err
		}
		return flowRecords(results, rep), nil
	})
	return workloadCellResult{recs: recs}, err
}

// staleSlack absorbs the gap between a schedule's leave offset and the last
// renewal the broker could still have processed for the departing peer (a
// stats report in flight when the client stopped lands a network delay
// later). A selection is counted stale only when the sink was down
// throughout [selection−TTL−slack, selection] — beyond any such in-flight
// renewal, so the lease was certainly expired.
const staleSlack = 10 * time.Second

// selectFlight bounds how long a selection request is in flight before the
// broker builds its candidate set: a sink that rejoined (fresh lease)
// within this window after the request instant may legitimately be handed
// out, so the staleness audit extends its down-throughout window past the
// request by this much.
const selectFlight = 5 * time.Second

// churnWorkloadCell is workloadCell on a churning scenario: membership is
// driven by the scenario's schedule through a workload.Conductor (initial
// population booted before traffic, joins and leaves executed as a
// virtual-time process), flow launches are staggered across the horizon,
// per-flow failures are recorded instead of aborting, and every
// model-selected sink is audited against the schedule — departed-but-leased
// sinks count as lagged, departed-and-expired sinks as stale (always zero:
// the broker never hands out a dead lease).
func churnWorkloadCell(cellCfg Config, flows []workload.Flow, rep int) (workloadCellResult, error) {
	sc := cellCfg.Scenario
	schedule := workload.NewSchedule(sc.Churn(cellCfg.Seed))
	stagger := workload.Stagger(cellCfg.Seed, sc.Horizon)
	// Fault scenarios draw their plan from the cell seed like the churn
	// schedule, boot peers with the resilient CallPolicy, and start the
	// injector alongside the conductor.
	var plan *faults.Plan
	var policy overlay.CallPolicy
	if sc.Faults != nil {
		plan = faults.NewPlan(sc.Faults(cellCfg.Seed))
		policy = overlay.DefaultCallPolicy()
	}
	// The TTL the broker actually runs with (scenarioLeases makes NewEnv
	// apply the same value): the heartbeat and the staleness audit must
	// both reason about it — a zero here would disable renewals and flag
	// every briefly-down sink as a (false) stale selection.
	advTTL := sc.EffectiveAdvTTL()
	cellCfg.scenarioLeases = true

	// The non-nil empty peer list is load-bearing: RunPeers boots every
	// catalog peer for nil, and *no* static peer for an empty slice —
	// membership here belongs exclusively to the conductor.
	var cond *workload.Conductor
	res, err := envCell(cellCfg, noStaticPeers, func(env *Env, ctl *overlay.Client) (workloadCellResult, error) {
		res := workloadCellResult{departed: schedule.Departures()}
		cpuOf := make(map[string]float64, len(env.Slice.Catalog))
		for _, p := range env.Slice.Catalog {
			cpuOf[p.Label] = p.Profile.CPUScore
		}
		cond = workload.NewConductor(env.Slice.Control, schedule, workload.RenewalInterval(advTTL), sc.Horizon, func(label string) (*overlay.Client, error) {
			node := env.Slice.Peers[label]
			if node == nil {
				return nil, fmt.Errorf("churn schedule names unknown peer %q", label)
			}
			return overlay.BootPeerWith(node, env.Broker.Addr(), overlay.ClientConfig{
				CPUScore: cpuOf[label],
				Call:     policy,
			})
		})
		cond.Logf = cellCfg.Logf
		if err := cond.BootInitial(); err != nil {
			return res, err
		}
		cond.Start()
		if plan != nil {
			res.brokerDown = plan.BrokerDowntime().Seconds()
			sites := make(map[string][]string)
			for _, p := range env.Slice.Catalog {
				if p.Site != "" {
					sites[p.Site] = append(sites[p.Site], p.Hostname)
				}
			}
			faults.NewInjector(env.Slice.Control, env.Slice.Net, env.Broker,
				env.Slice.Control.Name(), sites, plan).Start()
		}
		// BootInitial consumed virtual time before the flows launch;
		// ChurnLaunch rebases the schedule-relative stagger offsets and
		// re-resolves sources at each flow's actual launch instant.
		flows, startOf := workload.ChurnLaunch(flows, schedule, sc.Labels, stagger,
			env.Slice.Control.Now().Sub(cond.StartedAt()))
		results, err := workload.Execute(workload.Env{
			Host:           env.Slice.Control,
			Control:        ctl,
			ClientOf:       cond.ClientOf,
			HostOf:         env.Host,
			LabelOf:        env.Label,
			ExcludeSinks:   []string{env.Slice.Control.Name()},
			Preferred:      rememberedHosts(env, sc),
			StartOf:        startOf,
			RecordFailures: true,
			Logf:           cellCfg.Logf,
		}, flows, cellCfg.Seed)
		if err != nil {
			return res, err
		}
		res.recs = flowRecords(results, rep)
		for _, r := range results {
			if r.Flow.Model == "" || r.Sink == "" || r.SelectedAt.IsZero() {
				continue
			}
			at := r.SelectedAt.Sub(cond.StartedAt())
			if schedule.LiveAt(r.Sink, at) {
				continue
			}
			// The window extends selectFlight past the request instant:
			// the broker decides one request leg later, and a rejoin
			// registering inside that flight legitimately puts the sink
			// back in the candidate set.
			if schedule.DownThroughout(r.Sink, at-advTTL-staleSlack, at+selectFlight) {
				res.stale++
			} else {
				res.lagged++
			}
		}
		return res, nil
	})
	// envCell returns at quiescence — the schedule has fully drained, so
	// even a join failure after the flows finished is captured.
	if err == nil && cond != nil {
		err = cond.Err()
	}
	return res, err
}

// noStaticPeers is RunPeers' "boot no catalog peer" argument (non-nil and
// empty; nil would boot all). Named so the distinction cannot be refactored
// away silently.
var noStaticPeers = []string{}

// flowRecords maps executed flow results into records for one repetition.
func flowRecords(results []workload.Result, rep int) []FlowRecord {
	recs := make([]FlowRecord, len(results))
	for i, r := range results {
		source := r.Flow.Source
		if source == "" {
			source = "control"
		}
		recs[i] = FlowRecord{
			Rep:                 rep,
			Index:               r.Flow.Index,
			Source:              source,
			Sink:                r.Sink,
			Model:               r.Flow.Model,
			Bytes:               r.Flow.SizeBytes,
			Parts:               r.Flow.Parts,
			Attempts:            r.Metrics.Attempts,
			PetitionSeconds:     r.Metrics.PetitionDelay().Seconds(),
			TransmissionSeconds: r.Metrics.TransmissionTime().Seconds(),
			Failed:              r.Err != "",
			Error:               r.Err,
			Degraded:            r.Degraded,
			Retries:             r.Retries,
			Pieces:              r.Pieces,
			Stalls:              r.Stalls,
			ReOriginated:        r.ReOriginated,
		}
	}
	return recs
}

func summarize(recs []FlowRecord) WorkloadSummary {
	s := WorkloadSummary{Flows: len(recs)}
	var xs []float64
	for _, r := range recs {
		// Attempt accounting covers every flow — a failed flow that burned
		// the whole relaunch budget is exactly the one Relaunched and
		// MaxAttempts exist to surface.
		if r.Attempts > 1 {
			s.Relaunched++
		}
		if r.Attempts > s.MaxAttempts {
			s.MaxAttempts = r.Attempts
		}
		s.RetriesSpent += r.Retries
		if r.Degraded {
			s.SelectionsDegraded++
		}
		if !r.Failed && (r.Degraded || r.Retries > 0) {
			s.FlowsRecovered++
		}
		// Dissemination progress is counted before the failed-flow cut: an
		// incomplete downloader's delivered pieces really moved, and losing
		// them here is exactly the lost-flow accounting the churn race test
		// guards against.
		s.PiecesMoved += r.Pieces
		if r.ReOriginated {
			s.PeersReOriginated++
		}
		if r.Stalls > 0 {
			s.StalledFlows++
			s.TotalStalls += r.Stalls
		}
		if r.Failed {
			// Failed flows moved no payload and have no surviving timing;
			// counting their bytes or zeros would skew the totals.
			s.FailedFlows++
			continue
		}
		s.TotalBytes += int64(r.Bytes)
		xs = append(xs, r.TransmissionSeconds)
	}
	if len(xs) > 0 {
		sum := metrics.Summarize(xs)
		s.MeanTransmissionSeconds = sum.Mean
		s.MaxTransmissionSeconds = sum.Max
	}
	return s
}
