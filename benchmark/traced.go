package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"peerlab/internal/experiments"
	"peerlab/internal/faults"
	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/simnet"
	"peerlab/internal/vtime"
	"peerlab/internal/workload"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Times are host seconds since the traced job started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; the parent writes them out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Seconds() }

// seconds is the summed duration of the spans called name.
func (t *tracer) seconds(name string) float64 {
	s := 0.0
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// tracedRun is what one traced job reports besides its flows.
type tracedRun struct {
	out      outcome
	spans    []span
	counters map[string]float64
	profile  []byte
}

// tracedJob runs the workload once through the same public calls
// experiments.RunWorkload (or, on boot, NewEnv + RunPeers) makes, with spans
// around setup, boot and execution, a CPU profile of the whole job, and the
// layers' counters read afterwards.
func (s spec) tracedJob(cfg experiments.Config) (tracedRun, error) {
	tr := newTracer()
	var (
		net      *simnet.Network
		bootPeer int
		bootRPCs int64
		out      outcome
		err      error
	)
	var prof bytes.Buffer
	spawned0, _ := vtime.SharedPool().Stats()
	parked0 := parkedProcesses()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return tracedRun{}, err
	}
	root := tr.begin("job", 0)
	onBoot := func(rpcs int64, peers int) { bootRPCs, bootPeer = rpcs, peers }
	switch {
	case s.bootOnly:
		net, out, err = tracedStatic(tr, root, cfg, nil, onBoot)
	case cfg.Scenario.Churn != nil:
		net, out, err = tracedChurn(tr, root, cfg, onBoot)
	default:
		cellCfg := cfg
		cellCfg.Seed = cellSeed(cfg)
		flows := cfg.Workload.Flows(cfg.Scenario.Labels, cellCfg.Seed)
		net, out, err = tracedStatic(tr, root, cellCfg, participants(flows), onBoot)
	}
	tr.end(root)
	pprof.StopCPUProfile()
	if err != nil {
		return tracedRun{}, err
	}
	spawned1, _ := vtime.SharedPool().Stats()
	sent, delivered, dropped := net.Stats()
	run := tr.seconds("job")
	c := map[string]float64{
		"overlay.boot_s":            tr.seconds("overlay.boot"),
		"workload.exec_s":           tr.seconds("workload.exec"),
		"vtime.workers_spawned":     float64(spawned1 - spawned0),
		"vtime.parked_after_run":    float64(parkedProcesses() - parked0),
		"vtime.virtual_s":           net.Scheduler().Elapsed().Seconds(),
		"simnet.sent":               float64(sent),
		"simnet.delivered":          float64(delivered),
		"simnet.dropped":            float64(dropped),
		"simnet.msgs_per_s":         float64(delivered) / run,
		"overlay.retries":           0,
		"overlay.degraded":          0,
		"overlay.ctl_rpcs_per_peer": float64(bootRPCs) / float64(max(bootPeer, 1)),
	}
	for _, f := range out.flows {
		c["overlay.retries"] += float64(f.Retries)
		if f.Degraded {
			c["overlay.degraded"]++
		}
	}
	return tracedRun{out: out, spans: tr.spans, counters: c, profile: prof.Bytes()}, nil
}

// vtimePkg prefixes the function names of the vtime package.
const vtimePkg = "peerlab/internal/vtime."

// parkedProcesses counts the goroutines whose innermost frame outside the
// runtime and sync packages is a vtime primitive other than the idle
// receive of (*Pool).work: simulation processes that are parked, not idle
// pool workers. Once a network's Run has returned, nothing can wake them.
func parkedProcesses() int {
	var recs []runtime.StackRecord
	n, ok := runtime.GoroutineProfile(nil)
	for !ok {
		recs = make([]runtime.StackRecord, n+n/4+16)
		n, ok = runtime.GoroutineProfile(recs)
	}
	parked := 0
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "sync.") {
				if strings.HasPrefix(f.Function, vtimePkg) && f.Function != vtimePkg+"(*Pool).work" {
					parked++
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return parked
}

// cellSeed is the seed experiments.RunWorkload gives the job's only cell:
// SplitMix64 over (root seed, "workload:"+name, cell index 0).
func cellSeed(cfg experiments.Config) int64 {
	h := scenario.Mix64(uint64(cfg.Seed))
	for _, b := range []byte("workload:" + cfg.Workload.Name) {
		h = scenario.Mix64(h ^ uint64(b))
	}
	return int64(scenario.Mix64(h ^ 0))
}

// participants mirrors experiments' rule for which peers a static cell
// boots: nil (all) as soon as any flow selects its sink.
func participants(flows []workload.Flow) []string {
	seen := make(map[string]bool)
	var labels []string
	for _, f := range flows {
		if f.Sink == "" {
			return nil
		}
		for _, l := range []string{f.Source, f.Sink} {
			if l != "" && !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
	}
	return labels
}

func rememberedHosts(host func(string) string, sc scenario.Scenario) []string {
	hosts := make([]string, 0, len(sc.Remembered))
	for _, label := range sc.Remembered {
		if h := host(label); h != "" {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// tracedStatic is a static workload cell: NewEnvFor, RunPeers (the boot
// wave), then the executor for the workload's flow family.
func tracedStatic(tr *tracer, root int, cellCfg experiments.Config, peers []string,
	onBoot func(rpcs int64, peers int)) (*simnet.Network, outcome, error) {
	sp := tr.begin("experiments.NewEnvFor", root)
	env, err := experiments.NewEnvFor(cellCfg, peers)
	tr.end(sp)
	if err != nil {
		return nil, outcome{}, err
	}
	seed := cellCfg.Seed
	flows := cellCfg.Workload.Flows(cellCfg.Scenario.Labels, seed)
	var out outcome
	boot := tr.begin("overlay.boot", root)
	var drain int
	err = env.RunPeers(peers, func(ctl *overlay.Client, clients map[string]*overlay.Client) error {
		tr.end(boot)
		// RunPeers starts the controller too: minus its register.
		onBoot(env.Broker.ControlRPCs()-1, len(clients))
		out.booted = registered(clients)
		ex := tr.begin("workload.exec", root)
		defer func() {
			tr.end(ex)
			drain = tr.begin("vtime.drain", root)
		}()
		wenv := cellEnv(env, ctl, clients, cellCfg.Scenario)
		if d := cellCfg.Workload.Disseminate; d != nil {
			o, err := workload.ExecuteDisseminate(wenv, *d, flows, seed)
			out.flows = fromResults(o.Results)
			return err
		}
		results, err := workload.Execute(wenv, flows, seed)
		out.flows = fromResults(results)
		return err
	})
	if drain > 0 {
		tr.end(drain)
	}
	return env.Slice.Net, out, err
}

// tracedChurn is the fault workload's cell built from public constructors:
// the scenario-lease broker, the membership conductor with its renewal
// heartbeat, and the fault injector, with flows launched on the scenario's
// seed-derived stagger.
func tracedChurn(tr *tracer, root int, cfg experiments.Config,
	onBoot func(rpcs int64, peers int)) (*simnet.Network, outcome, error) {
	seed := cellSeed(cfg)
	sc := cfg.Scenario
	schedule := workload.NewSchedule(sc.Churn(seed))
	stagger := workload.Stagger(seed, sc.Horizon)
	var plan *faults.Plan
	var policy overlay.CallPolicy
	if sc.Faults != nil {
		plan = faults.NewPlan(sc.Faults(seed))
		policy = overlay.DefaultCallPolicy()
	}
	advTTL := sc.EffectiveAdvTTL()

	sp := tr.begin("scenario.DeployPeers", root)
	slice, err := scenario.DeployPeers(sc, seed, nil)
	tr.end(sp)
	if err != nil {
		return nil, outcome{}, err
	}
	sp = tr.begin("overlay.NewBroker", root)
	broker, err := overlay.NewBroker(slice.Control, overlay.BrokerConfig{AdvTTL: advTTL,
		LeaseSweep: sc.LeaseSweep, Shards: cfg.Shards, CacheLimit: cfg.CacheLimit})
	tr.end(sp)
	if err != nil {
		return nil, outcome{}, err
	}
	hostOf := make(map[string]string, len(slice.Catalog))
	labelOf := make(map[string]string, len(slice.Catalog))
	cpuOf := make(map[string]float64, len(slice.Catalog))
	for _, p := range slice.Catalog {
		hostOf[p.Label], labelOf[p.Hostname], cpuOf[p.Label] = p.Hostname, p.Label, p.Profile.CPUScore
	}
	host := func(l string) string { return hostOf[l] }
	flows := cfg.Workload.Flows(sc.Labels, seed)
	var out outcome
	var cond *workload.Conductor
	var runErr error
	var drain int
	slice.Net.Run(func() {
		ctl := overlay.NewClient(slice.Control, broker.Addr(), overlay.ClientConfig{CPUScore: 2, Call: policy})
		if runErr = ctl.Start(); runErr != nil {
			return
		}
		cond = workload.NewConductor(slice.Control, schedule, workload.RenewalInterval(advTTL), sc.Horizon,
			func(label string) (*overlay.Client, error) {
				node := slice.Peers[label]
				if node == nil {
					return nil, fmt.Errorf("churn schedule names unknown peer %q", label)
				}
				return overlay.BootPeerWith(node, broker.Addr(), overlay.ClientConfig{CPUScore: cpuOf[label], Call: policy})
			})
		rpcs0 := broker.ControlRPCs()
		boot := tr.begin("overlay.boot", root)
		runErr = cond.BootInitial()
		tr.end(boot)
		if runErr != nil {
			return
		}
		onBoot(broker.ControlRPCs()-rpcs0, len(schedule.Initial()))
		out.booted = len(schedule.Initial())
		cond.Start()
		if plan != nil {
			sites := make(map[string][]string)
			for _, p := range slice.Catalog {
				if p.Site != "" {
					sites[p.Site] = append(sites[p.Site], p.Hostname)
				}
			}
			faults.NewInjector(slice.Control, slice.Net, broker, slice.Control.Name(), sites, plan).Start()
		}
		launched, startOf := workload.ChurnLaunch(flows, schedule, sc.Labels, stagger,
			slice.Control.Now().Sub(cond.StartedAt()))
		ex := tr.begin("workload.exec", root)
		results, err := workload.Execute(workload.Env{
			Host:           slice.Control,
			Control:        ctl,
			ClientOf:       cond.ClientOf,
			HostOf:         host,
			LabelOf:        func(h string) string { return labelOf[h] },
			ExcludeSinks:   []string{slice.Control.Name()},
			Preferred:      rememberedHosts(host, sc),
			StartOf:        startOf,
			RecordFailures: true,
		}, launched, seed)
		tr.end(ex)
		drain = tr.begin("vtime.drain", root)
		out.flows = fromResults(results)
		runErr = err
	})
	if drain > 0 {
		tr.end(drain)
	}
	if runErr == nil && cond != nil {
		runErr = cond.Err()
	}
	return slice.Net, out, runErr
}
