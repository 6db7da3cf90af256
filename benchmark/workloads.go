package main

import (
	"fmt"
	"sort"

	"peerlab/internal/experiments"
	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// spec is one benchmark workload: a seed-pure batch job that deploys a
// scenario, boots its directory and runs a flow set to completion.
type spec struct {
	name     string
	scenario string
	flows    string
	shards   int
	// bootOnly marks the job that is experiments.NewEnv + Env.RunPeers over
	// the whole catalog rather than experiments.RunWorkload: its flow set is
	// a fixed-sink tail that runs after the boot wave, so the boot dominates.
	bootOnly bool
	// worlds is how many job seeds a run cycles through (see jobSeed):
	// enough that the pooled modelled metrics are steady across run seeds,
	// few enough that one cycle fits a run.
	worlds int
}

// specs are the benchmark's workloads, each sized so one job takes one to
// three host seconds on a 2-core box and its named layer dominates the CPU
// profile of the traced run (see README.md for the measured shares).
var specs = []spec{
	{name: "boot", scenario: "uniform:8192", flows: "allpairs:16", shards: 8, bootOnly: true, worlds: 8},
	{name: "select", scenario: "uniform:2048", flows: "swarm:512", shards: 4, worlds: 6},
	{name: "dissem", scenario: "heterogeneous:256", flows: "disseminate:256", shards: 1, worlds: 6},
	{name: "faults", scenario: "faults:128", flows: "swarm:128", shards: 1, worlds: 16},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (want boot, select, dissem or faults)", name)
}

// defaultCacheLimit is the broker's default per-shard directory size, and
// experimentsDefaultSeed the seed experiments.Config uses for Seed 0.
const (
	defaultCacheLimit      = 1024
	experimentsDefaultSeed = 2007
)

// config is the experiment configuration every job of the workload runs:
// one repetition on one cell worker, with every broker shard large enough
// to hold the whole directory (peers and the control node) however the
// peers hash across shards.
func (s spec) config(seed int64) (experiments.Config, error) {
	sc, err := scenario.Parse(s.scenario)
	if err != nil {
		return experiments.Config{}, err
	}
	w, err := workload.Parse(s.flows)
	if err != nil {
		return experiments.Config{}, err
	}
	if seed == 0 {
		// RunWorkload reads Seed 0 as its default seed; every path of the
		// benchmark must simulate the same world.
		seed = experimentsDefaultSeed
	}
	return experiments.Config{
		Seed:       seed,
		Reps:       1,
		Workers:    1,
		Scenario:   sc,
		Shards:     s.shards,
		CacheLimit: max(defaultCacheLimit, 2*len(sc.Labels)),
		Workload:   w,
	}, nil
}

// flowRec is one executed flow, the fields experiments.FlowRecord carries,
// built from either RunWorkload's report or workload.Execute's results so
// the traced run can be compared with the untraced one field by field.
type flowRec struct {
	Source       string  `json:"source"`
	Sink         string  `json:"sink"`
	Model        string  `json:"model,omitempty"`
	Bytes        int     `json:"bytes"`
	Parts        int     `json:"parts"`
	Attempts     int     `json:"attempts"`
	Petition     float64 `json:"petition_s"`
	Transmission float64 `json:"transmission_s"`
	Failed       bool    `json:"failed,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
	Retries      int     `json:"retries,omitempty"`
	Pieces       int     `json:"pieces,omitempty"`
	ReOriginated bool    `json:"reoriginated,omitempty"`
}

func fromRecords(recs []experiments.FlowRecord) []flowRec {
	out := make([]flowRec, len(recs))
	for i, r := range recs {
		out[i] = flowRec{r.Source, r.Sink, r.Model, r.Bytes, r.Parts, r.Attempts,
			r.PetitionSeconds, r.TransmissionSeconds, r.Failed, r.Degraded, r.Retries,
			r.Pieces, r.ReOriginated}
	}
	return out
}

// fromResults maps executor results the way experiments maps them into
// FlowRecords (a control-sourced flow reads "control").
func fromResults(results []workload.Result) []flowRec {
	out := make([]flowRec, len(results))
	for i, r := range results {
		source := r.Flow.Source
		if source == "" {
			source = "control"
		}
		out[i] = flowRec{source, r.Sink, r.Flow.Model, r.Flow.SizeBytes, r.Flow.Parts,
			r.Metrics.Attempts, r.Metrics.PetitionDelay().Seconds(),
			r.Metrics.TransmissionTime().Seconds(), r.Err != "", r.Degraded, r.Retries,
			r.Pieces, r.ReOriginated}
	}
	return out
}

// outcome is what one job produced, as far as the output checks need it.
type outcome struct {
	flows  []flowRec
	booted int // peers registered after the boot wave (boot only)
	stale  int // selections_stale (faults)
}

// job runs the workload once, untraced, through the experiments layer.
func (s spec) job(cfg experiments.Config) (outcome, error) {
	if !s.bootOnly {
		rep, err := experiments.RunWorkload(cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{flows: fromRecords(rep.Flows), stale: rep.Summary.SelectionsStale}, nil
	}
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	err = env.Run(func(ctl *overlay.Client, clients map[string]*overlay.Client) error {
		out.booted = registered(clients)
		flows := cfg.Workload.Flows(cfg.Scenario.Labels, cfg.Seed)
		results, err := workload.Execute(cellEnv(env, ctl, clients, cfg.Scenario), flows, cfg.Seed)
		out.flows = fromResults(results)
		return err
	})
	return out, err
}

// cellEnv is the executor environment experiments gives a static workload
// cell (the dissemination engine ignores Preferred and IdleGap).
func cellEnv(env *experiments.Env, ctl *overlay.Client, clients map[string]*overlay.Client, sc scenario.Scenario) workload.Env {
	return workload.Env{
		Host:         env.Slice.Control,
		Control:      ctl,
		Clients:      clients,
		HostOf:       env.Host,
		LabelOf:      env.Label,
		ExcludeSinks: []string{env.Slice.Control.Name()},
		Preferred:    rememberedHosts(env.Host, sc),
		IdleGap:      defaultIdleGap,
	}
}

func registered(clients map[string]*overlay.Client) int {
	n := 0
	for _, c := range clients {
		if c.Registered() {
			n++
		}
	}
	return n
}

// ops is how many operations a job attempts: its flows, plus one boot per
// catalog peer on the boot workload.
func (s spec) ops(cfg experiments.Config) int {
	n := len(cfg.Workload.Flows(cfg.Scenario.Labels, cfg.Seed))
	if s.bootOnly {
		n += len(cfg.Scenario.Labels)
	}
	return n
}

// failed counts the job's failed operations.
func (s spec) failed(cfg experiments.Config, out outcome) int {
	n := 0
	for _, f := range out.flows {
		if f.Failed {
			n++
		}
	}
	if s.bootOnly {
		n += len(cfg.Scenario.Labels) - out.booted
	}
	return n
}

// check returns every output check the job's outcome fails.
func (s spec) check(cfg experiments.Config, out outcome) []string {
	var bad []string
	if want := len(cfg.Workload.Flows(cfg.Scenario.Labels, cfg.Seed)); len(out.flows) != want {
		bad = append(bad, fmt.Sprintf("%d flows executed, want %d", len(out.flows), want))
	}
	failed := 0
	reorig := 0
	for _, f := range out.flows {
		if f.Failed {
			failed++
		}
		if f.ReOriginated {
			reorig++
		}
	}
	switch s.name {
	case "boot":
		if out.booted != len(cfg.Scenario.Labels) {
			bad = append(bad, fmt.Sprintf("%d of %d peers booted", out.booted, len(cfg.Scenario.Labels)))
		}
	case "dissem":
		if reorig == 0 {
			bad = append(bad, "peers_reoriginated == 0")
		}
	case "faults":
		if out.stale != 0 {
			bad = append(bad, fmt.Sprintf("selections_stale == %d", out.stale))
		}
	}
	if failed > 0 && s.name != "faults" {
		bad = append(bad, fmt.Sprintf("%d failed flows", failed))
	}
	return bad
}

// xferQuantiles returns the median and 90th percentile of the completed
// flows' transmission times, in virtual seconds.
func xferQuantiles(flows []flowRec) (p50, p90 float64) {
	var xs []float64
	for _, f := range flows {
		if !f.Failed {
			xs = append(xs, f.Transmission)
		}
	}
	sort.Float64s(xs)
	return quantile(xs, 0.5), quantile(xs, 0.9)
}

// quantile interpolates linearly between the closest ranks of sorted xs
// (0 for no values: every flow failed, which the output checks report).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
