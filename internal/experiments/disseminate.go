// Dissemination cells and figures: the piece-level workload family run
// through the experiment stack. A dissemination cell deploys its slice like
// any workload cell, but executes the multi-round piece-exchange engine
// (workload.ExecuteDisseminate) instead of the single-round executor, and
// folds the engine's peer-pair byte matrix into bandwidth-class counters —
// the measurement behind the clustering figure (Legout et al.: under
// tit-for-tat, fast peers end up trading with fast peers).
package experiments

import (
	"fmt"
	"sort"

	"peerlab/internal/faults"
	"peerlab/internal/metrics"
	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// disseminateCell runs one repetition of a dissemination workload. Churning
// scenarios route to the conductor-driven variant.
func disseminateCell(cellCfg Config, w workload.Workload, flows []workload.Flow, rep int) (workloadCellResult, error) {
	if cellCfg.Scenario.Churn != nil {
		return churnDisseminateCell(cellCfg, w, flows, rep)
	}
	return envCell(cellCfg, participants(flows), func(env *Env, ctl *overlay.Client) (workloadCellResult, error) {
		outcome, err := workload.ExecuteDisseminate(workload.Env{
			Host:         env.Slice.Control,
			Control:      ctl,
			Clients:      env.Clients,
			HostOf:       env.Host,
			LabelOf:      env.Label,
			ExcludeSinks: []string{env.Slice.Control.Name()},
			Logf:         cellCfg.Logf,
		}, *w.Disseminate, flows, cellCfg.Seed)
		if err != nil {
			return workloadCellResult{}, err
		}
		res := workloadCellResult{recs: flowRecords(outcome.Results, rep)}
		res.like, res.cross = clusterBytes(env.Slice.Catalog, outcome.PairBytes)
		return res, nil
	})
}

// churnDisseminateCell is disseminateCell under a membership schedule: the
// conductor owns membership exactly as in churnWorkloadCell, downloaders
// depart (and rejoin) mid-swarm, and per-flow failures are recorded rather
// than aborting. A departed downloader that held pieces simply stops
// re-originating until it rejoins; its received pieces stay counted.
func churnDisseminateCell(cellCfg Config, w workload.Workload, flows []workload.Flow, rep int) (workloadCellResult, error) {
	sc := cellCfg.Scenario
	schedule := workload.NewSchedule(sc.Churn(cellCfg.Seed))
	var plan *faults.Plan
	var policy overlay.CallPolicy
	if sc.Faults != nil {
		plan = faults.NewPlan(sc.Faults(cellCfg.Seed))
		policy = overlay.DefaultCallPolicy()
	}
	advTTL := sc.EffectiveAdvTTL()
	cellCfg.scenarioLeases = true

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
		outcome, err := workload.ExecuteDisseminate(workload.Env{
			Host:           env.Slice.Control,
			Control:        ctl,
			ClientOf:       cond.ClientOf,
			HostOf:         env.Host,
			LabelOf:        env.Label,
			ExcludeSinks:   []string{env.Slice.Control.Name()},
			RecordFailures: true,
			Logf:           cellCfg.Logf,
		}, *w.Disseminate, flows, cellCfg.Seed)
		if err != nil {
			return res, err
		}
		res.recs = flowRecords(outcome.Results, rep)
		res.like, res.cross = clusterBytes(env.Slice.Catalog, outcome.PairBytes)
		return res, nil
	})
	if err == nil && cond != nil {
		err = cond.Err()
	}
	return res, err
}

// clusterBytes splits a dissemination run's pair matrix by bandwidth class:
// the catalog's top half by profile bandwidth is "fast", the rest "slow"
// (ties broken by label so the split is canonical), pairs involving the
// control node are excluded (seeding is not peer reciprocity), and each
// peer-to-peer pair's bytes land in like (both fast or both slow) or cross.
// A like/cross ratio above 1 is the Legout clustering signature.
func clusterBytes(catalog []scenario.Peer, pairs []workload.PairBytes) (like, cross int64) {
	ranked := make([]scenario.Peer, len(catalog))
	copy(ranked, catalog)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Profile.Bandwidth != ranked[j].Profile.Bandwidth {
			return ranked[i].Profile.Bandwidth > ranked[j].Profile.Bandwidth
		}
		return ranked[i].Label < ranked[j].Label
	})
	fast := make(map[string]bool, len(ranked)/2)
	for i := 0; i < (len(ranked)+1)/2; i++ {
		fast[ranked[i].Label] = true
	}
	for _, p := range pairs {
		if p.From == "" {
			continue
		}
		if fast[p.From] == fast[p.To] {
			like += p.Bytes
		} else {
			cross += p.Bytes
		}
	}
	return like, cross
}

// ---- the dissemination figures -------------------------------------------

// DefaultClusterScenario is the world FigBandwidthClustering measures when
// the Config leaves the scenario unset: the Zipf capacity skew is where
// bandwidth clustering is visible (a uniform slice has no classes to
// cluster). Its workload hint supplies the dissemination workload.
const DefaultClusterScenario = "zipf:16"

// DefaultStreamWorkload is the workload FigStreamStalls measures when the
// Config leaves the workload unset.
const DefaultStreamWorkload = "stream:16"

// FigBandwidthClustering is the incentive figure: the like/cross pair-byte
// ratio under each choking policy. It sweeps the resolved dissemination
// workload over the choke axis (tft, none) and reads the sweep's choke
// marginals: under tit-for-tat fast peers reciprocate with fast peers and
// the ratio climbs above 1 (Legout's clustering), while choke=none — with
// the deliberately policy-neutral partner choice — mixes the classes. A
// non-dissemination workload is an error, not a substitution: only the
// piece engine produces a pair matrix.
func FigBandwidthClustering(cfg Config) (*metrics.Figure, error) {
	if cfg.Scenario.IsZero() {
		def, err := scenario.Parse(DefaultClusterScenario)
		if err != nil {
			return nil, fmt.Errorf("experiments: figcluster: %w", err)
		}
		cfg.Scenario = def
	}
	cfg = cfg.withDefaults()
	w, err := resolveWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: figcluster: %w", err)
	}
	if w.Disseminate == nil {
		return nil, fmt.Errorf("experiments: figcluster: workload %q is not a dissemination workload (want disseminate:N / stream:N)", w.Name)
	}
	cfg.Workload = w
	report, err := RunSweep(cfg, Sweep{Chokes: workload.Chokes, Reps: cfg.Reps})
	if err != nil {
		return nil, fmt.Errorf("experiments: figcluster: %w", err)
	}
	byChoke := map[string]SweepMarginal{}
	for _, m := range report.Marginals {
		if m.Axis == "choke" {
			byChoke[m.Value] = m
		}
	}
	fig := &metrics.Figure{
		Title:  fmt.Sprintf("Bandwidth clustering vs choking policy — %s", cfg.Scenario.Name),
		Unit:   "like/cross pair-byte ratio",
		Labels: make([]string, 0, len(workload.Chokes)),
	}
	ratios := make([]float64, 0, len(workload.Chokes))
	for _, choke := range workload.Chokes {
		m, ok := byChoke[choke]
		if !ok {
			return nil, fmt.Errorf("experiments: figcluster: no marginal for choke=%s", choke)
		}
		fig.Labels = append(fig.Labels, "choke="+choke)
		ratios = append(ratios, m.PairingRatio)
	}
	if err := fig.AddSeries("pairing ratio", ratios); err != nil {
		return nil, err
	}
	return fig, nil
}

// FigStreamStalls is the streaming figure: playback stalls under each
// piece-picking policy, as two series — stalls per flow and the share of
// flows that stalled at all. It sweeps the streaming workload over the pick
// axis and reads the pick marginals: sequential picking delivers pieces in
// playback order and stalls fewer viewers, rarest-first optimizes swarm
// health at the viewer's expense (Rodrigues & Druschel's on-demand
// streaming observation — clearest in the stalled-flow share, since total
// stall counts concentrate on capacity-starved tail peers that no picking
// order can save). A non-streaming workload is an error — without
// deadlines there are no stalls to rank.
func FigStreamStalls(cfg Config) (*metrics.Figure, error) {
	if cfg.Scenario.IsZero() {
		def, err := scenario.Parse(DefaultClusterScenario)
		if err != nil {
			return nil, fmt.Errorf("experiments: figstream: %w", err)
		}
		cfg.Scenario = def
	}
	cfg = cfg.withDefaults()
	if cfg.Workload.IsZero() {
		w, err := workload.Parse(DefaultStreamWorkload)
		if err != nil {
			return nil, fmt.Errorf("experiments: figstream: %w", err)
		}
		cfg.Workload = w
	}
	if cfg.Workload.Disseminate == nil || !cfg.Workload.Disseminate.Stream {
		return nil, fmt.Errorf("experiments: figstream: workload %q is not a streaming workload (want stream:N)", cfg.Workload.Name)
	}
	report, err := RunSweep(cfg, Sweep{Picks: workload.Picks, Reps: cfg.Reps})
	if err != nil {
		return nil, fmt.Errorf("experiments: figstream: %w", err)
	}
	byPick := map[string]SweepMarginal{}
	for _, m := range report.Marginals {
		if m.Axis == "pick" {
			byPick[m.Value] = m
		}
	}
	fig := &metrics.Figure{
		Title:  fmt.Sprintf("Playback stalls vs piece picking — %s", cfg.Scenario.Name),
		Unit:   "stalls per flow; stalled flows %",
		Labels: make([]string, 0, len(workload.Picks)),
	}
	stalls := make([]float64, 0, len(workload.Picks))
	stalledPct := make([]float64, 0, len(workload.Picks))
	for _, pick := range workload.Picks {
		m, ok := byPick[pick]
		if !ok {
			return nil, fmt.Errorf("experiments: figstream: no marginal for pick=%s", pick)
		}
		fig.Labels = append(fig.Labels, "pick="+pick)
		stalls = append(stalls, m.StallsPerFlow)
		stalledPct = append(stalledPct, m.StalledPct)
	}
	if err := fig.AddSeries("stalls per flow", stalls); err != nil {
		return nil, err
	}
	if err := fig.AddSeries("stalled flows %", stalledPct); err != nil {
		return nil, err
	}
	return fig, nil
}
