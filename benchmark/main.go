// Command benchmark measures peerlab end to end and layer by layer on four
// batch workloads (boot, select, dissem, faults); see README.md.
//
//	benchmark --workload select --seed 1 --seconds 20 --trace 0
//	benchmark compare --parent DIR --change DIR [--bench BENCHMARK.json]
//
// A run repeats the workload's job, each time in a fresh child process (a
// cell leaves its parked daemon processes behind, so jobs in one process
// would share a growing heap), cycling through the run's job seeds until
// --seconds have passed and every job seed ran. Host times are CPU seconds
// (user plus system, every thread) of the child, scaled to a reference host
// speed that the run measures between its jobs (calib.go). With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it pairs untraced and traced
// jobs, runs the layer probes and prints the per-layer metrics. The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"peerlab/internal/experiments"
	"peerlab/internal/scenario"
)

// defaultIdleGap is experiments.Config's default IdleGap, which static
// workload cells hand the executor.
const defaultIdleGap = 10 * time.Minute

// setupReps is how many times each untraced job times its set-up.
const setupReps = 3

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "child":
			os.Exit(childMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// jobReport is what a child process measured for one job.
type jobReport struct {
	SetupS    float64            `json:"setup_s"` // CPU seconds, median of setupReps
	RunS      float64            `json:"run_s"`   // CPU seconds of the job
	WallS     float64            `json:"wall_s"`  // wall seconds of the job
	AllocMB   float64            `json:"alloc_mb"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Flows     []flowRec          `json:"flows"`
	Counters  map[string]float64 `json:"counters,omitempty"`
	Profile   *profileCounts     `json:"profile,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

type runFlags struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func parseRunFlags(name string, args []string) (runFlags, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	w := fs.String("workload", "", "workload: boot, select, dissem or faults")
	seed := fs.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return runFlags{}, err
	}
	if fs.NArg() > 0 {
		return runFlags{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return runFlags{}, fmt.Errorf("--trace must be 0 or 1")
	}
	if _, err := specByName(*w); err != nil {
		return runFlags{}, err
	}
	return runFlags{*w, *seed, *seconds, *trace == 1}, nil
}

// childMain runs one job of the workload in this process and prints its
// jobReport as one JSON line.
func childMain(args []string) int {
	f, err := parseRunFlags("child", args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	if f.trace {
		// Sample one allocation per 64 KiB (the default is 512 KiB) so the
		// allocation shares of the traced job rest on enough samples.
		runtime.MemProfileRate = 64 << 10
	}
	rep, err := runJob(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

func runJob(f runFlags) (jobReport, error) {
	s, _ := specByName(f.workload)
	cfg, err := s.config(f.seed)
	if err != nil {
		return jobReport{}, err
	}
	var rep jobReport
	if !f.trace {
		// Set-up, setupReps times (the median counts): deploy and build the
		// broker, then shut the broker down so its accept loop exits
		// instead of holding the slice.
		var xs []float64
		for range setupReps {
			runtime.GC()
			c := cpuSeconds()
			env, err := experiments.NewEnv(cfg)
			xs = append(xs, cpuSeconds()-c)
			if err != nil {
				return rep, err
			}
			env.Slice.Net.Run(env.Broker.Close)
		}
		rep.SetupS = median(xs)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	c0 := cpuSeconds()
	var out outcome
	var tr tracedRun
	if f.trace {
		tr, err = s.tracedJob(cfg)
		out, rep.Counters, rep.Spans = tr.out, tr.counters, tr.spans
	} else {
		out, err = s.job(cfg)
	}
	rep.RunS, rep.WallS = cpuSeconds()-c0, time.Since(t).Seconds()
	if err != nil {
		return rep, err
	}
	runtime.ReadMemStats(&m1)
	if f.trace {
		// The heap the finished job leaves reachable: every reference the
		// benchmark held to its slice is gone, so what a collection keeps
		// is held from inside the simulation.
		var mr runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&mr)
		rep.Counters["vtime.retained_heap_mb"] = (float64(mr.HeapAlloc) - float64(m0.HeapAlloc)) / 1e6
		c, err := attribute(tr.profile)
		if err != nil {
			return rep, err
		}
		runtime.GC()
		c.attributeAllocs()
		rep.Profile = &c
	}
	rep.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	rep.PeakRSSMB = peakRSSMB()
	rep.Ops = s.ops(cfg)
	rep.Failed = s.failed(cfg, out)
	rep.Problems = s.check(cfg, out)
	rep.Flows = out.flows
	if f.trace {
		// The scenario layer's part of set-up, alone: synthesize the
		// catalog and add every node to a fresh network.
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		d0 := time.Now()
		_, err := scenario.DeployPeers(cfg.Scenario, cfg.Seed, nil)
		rep.Counters["scenario.deploy_s"] = time.Since(d0).Seconds()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return rep, err
		}
		rep.Counters["scenario.bytes_per_peer"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(cfg.Scenario.Labels))
	}
	return rep, nil
}

// cpuSeconds is the user plus system CPU time of every thread of this
// process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's high-water resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// spawn runs one job in a child process and returns its report.
func spawn(workload string, seed int64, traced bool) (jobReport, error) {
	self, err := os.Executable()
	if err != nil {
		return jobReport{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "child", "--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return jobReport{}, fmt.Errorf("child job: %w", err)
	}
	var rep jobReport
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &rep); err != nil {
		return jobReport{}, fmt.Errorf("child job output: %w", err)
	}
	return rep, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runMain(args []string) int {
	f, err := parseRunFlags("benchmark", args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	s, _ := specByName(f.workload)
	fmt.Printf("workload %s (%s + %s, %d shards), seed %d, %gs, trace %v\n",
		s.name, s.scenario, s.flows, s.shards, f.seed, f.seconds, f.trace)
	var res result
	if f.trace {
		res, err = runTraced(s, f)
	} else {
		res, err = runUntraced(s, f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// jobSeed is the seed job i of a run with seed S simulates:
// S*seedStride + i mod worlds. A single seed's modelled results hinge on a
// few peers (every concurrent selector of a model picks the same sink), so
// a run pools several worlds; jobs past the first cycle repeat earlier
// seeds and must reproduce their flow records.
func (s spec) jobSeed(run int64, job int) int64 { return run*seedStride + int64(job%s.worlds) }

// seedStride keeps the job seeds of different run seeds apart.
const seedStride = 16

// collector runs jobs in child processes, samples the reference kernel
// between them, and accumulates the reports and the output checks.
type collector struct {
	reports  []jobReport
	seeds    []int64             // job seed of each report
	refs     []float64           // reference pass CPU seconds, before and after every job
	flows    map[int64][]flowRec // by job seed
	problems []string
	// attempted and failed count the operations of each job seed once:
	// later jobs of a seed repeat its simulation (their flow records must
	// equal the first's), so the counts are a pure function of the run seed.
	attempted int
	failed    int
}

// run runs one job of the workload on the job seed in a child process and
// adds its report.
func (c *collector) run(label, workload string, seed int64, traced bool) error {
	if len(c.refs) == 0 {
		c.refs = append(c.refs, refSample())
	}
	rep, err := spawn(workload, seed, traced)
	if err != nil {
		return err
	}
	c.refs = append(c.refs, refSample())
	c.add(label, seed, rep)
	return nil
}

// scale converts the run's CPU seconds to seconds at reference speed.
func (c *collector) scale() float64 { return refPassS / median(c.refs) }

func (c *collector) add(label string, seed int64, rep jobReport) {
	if c.flows == nil {
		c.flows = map[int64][]flowRec{}
	}
	if prev, ok := c.flows[seed]; !ok {
		c.flows[seed] = rep.Flows
		c.attempted += rep.Ops
		c.failed += rep.Failed
	} else if !reflect.DeepEqual(prev, rep.Flows) {
		c.problems = append(c.problems, fmt.Sprintf("%s: flow records differ from an earlier job of seed %d", label, seed))
	}
	for _, p := range rep.Problems {
		c.problems = append(c.problems, label+": "+p)
	}
	c.reports = append(c.reports, rep)
	c.seeds = append(c.seeds, seed)
}

// bySeed takes the median of each job seed's values and averages those
// medians, so every job seed weighs the same however many of its jobs the
// run's time allowed.
func (c *collector) bySeed(get func(jobReport) float64) float64 {
	per := map[int64][]float64{}
	for i, r := range c.reports {
		per[c.seeds[i]] = append(per[c.seeds[i]], get(r))
	}
	sum := 0.0
	for _, xs := range per {
		sum += median(xs)
	}
	return sum / float64(len(per))
}

// pooled is every job seed's flows, in seed order.
func (c *collector) pooled() []flowRec {
	seeds := make([]int64, 0, len(c.flows))
	for s := range c.flows {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var all []flowRec
	for _, s := range seeds {
		all = append(all, c.flows[s]...)
	}
	return all
}

func (c *collector) report() {
	for _, p := range c.problems {
		fmt.Println("CHECK FAILED:", p)
	}
}

// runUntraced measures the end-to-end metrics: jobs cycle through the run's
// job seeds until --seconds have passed and every job seed ran at least once.
func runUntraced(s spec, f runFlags) (result, error) {
	var c collector
	start := time.Now()
	for i := 0; i < s.worlds || time.Since(start).Seconds() < f.seconds; i++ {
		seed := s.jobSeed(f.seed, i)
		if err := c.run(fmt.Sprintf("job %d (seed %d)", i+1, seed), f.workload, seed, false); err != nil {
			return result{}, err
		}
	}
	c.report()
	k := c.scale()
	runs := make([]float64, len(c.reports))
	for i, r := range c.reports {
		runs[i] = r.RunS * k
		fmt.Printf("  job %d seed %d: cpu %.4f wall %.4f setup cpu %.4f alloc_mb %.1f peak_rss_mb %.1f\n",
			i+1, c.seeds[i], r.RunS, r.WallS, r.SetupS, r.AllocMB, r.PeakRSSMB)
	}
	q1r, q2r, q3r := quartiles(c.refs)
	fmt.Printf("reference pass over %d samples: median %.4f, quartiles %.4f..%.4f cpu s; scale %.4f\n", len(c.refs), q2r, q1r, q3r, k)
	q1, q2, q3 := quartiles(runs)
	fmt.Printf("run_s over %d jobs: median %.4f, quartiles %.4f..%.4f\n", len(runs), q2, q1, q3)
	p50, p90 := xferQuantiles(c.pooled())
	failShare := float64(c.failed) / float64(c.attempted)
	fmt.Printf("fail_share %.6f (%d of %d operations)\n", failShare, c.failed, c.attempted)
	// Host costs are averaged over the job seeds (bySeed), so a run's
	// figure does not depend on which seeds its last jobs happened to repeat.
	m := map[string]metric{
		"run_s":       {k * c.bySeed(func(r jobReport) float64 { return r.RunS }), "s"},
		"setup_s":     {k * c.bySeed(func(r jobReport) float64 { return r.SetupS }), "s"},
		"peak_rss_mb": {c.bySeed(func(r jobReport) float64 { return r.PeakRSSMB }), "MB"},
		"alloc_mb":    {c.bySeed(func(r jobReport) float64 { return r.AllocMB }), "MB"},
		"xfer_p50_vs": {p50, "s"},
		"xfer_p90_vs": {p90, "s"},
		"ok_share":    {1 - failShare, "share"},
	}
	return result{Correct: len(c.problems) == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

// runTraced runs pairs of one untraced and one traced job on the same job
// seed until half the run's time is spent, checks that both give the same
// flow records, then runs the layer probes, and reports every per-layer
// metric with the tracing overhead. Counters come from the first traced job
// (the run's first job seed), so the exact ones are exact per run seed.
func runTraced(s spec, f runFlags) (result, error) {
	var c collector // every job, for the checks and the flow-equality check
	var traced []jobReport
	var plainRun, tracedRun []float64
	start := time.Now()
	for i := 0; i < 1 || time.Since(start).Seconds() < f.seconds/2; i++ {
		seed := s.jobSeed(f.seed, i)
		for _, tr := range []bool{false, true} {
			kind := "untraced"
			if tr {
				kind = "traced"
			}
			if err := c.run(fmt.Sprintf("%s job %d (seed %d)", kind, i+1, seed), f.workload, seed, tr); err != nil {
				return result{}, err
			}
			rep := c.reports[len(c.reports)-1]
			if tr {
				traced = append(traced, rep)
				tracedRun = append(tracedRun, rep.RunS)
			} else {
				plainRun = append(plainRun, rep.RunS)
			}
		}
	}
	c.report()
	m := map[string]metric{}
	for name, v := range traced[0].Counters {
		m[name] = metric{v, unitOf(name)}
	}
	m["trace.overhead_s"] = metric{c.scale() * (median(tracedRun) - median(plainRun)), "s"}
	m["host.ref_pass_s"] = metric{median(c.refs), "s"}
	var prof profileCounts
	for _, r := range traced {
		prof.add(*r.Profile)
	}
	fmt.Printf("cpu profile: %d samples over %d traced jobs\n", prof.Total, len(traced))
	for _, l := range append(append([]string{}, layers...), "runtime") {
		m[l+".cpu_share"] = metric{share(prof.Layers[l], prof.Total), "share"}
	}
	for p := range pathMarkers {
		m[p] = metric{share(prof.Paths[p], prof.Total), "share"}
		alloc := strings.TrimSuffix(p, "_path_share") + "_alloc_share"
		m[alloc] = metric{share(prof.AllocPaths[p], prof.AllocTotal), "share"}
	}
	if err := writeSpans(s, f, traced); err != nil {
		return result{}, err
	}
	pm, err := probes(s, s.jobSeed(f.seed, 0))
	if err != nil {
		return result{}, err
	}
	for name, v := range pm {
		m[name] = metric{v, unitOf(name)}
	}
	return result{Correct: len(c.problems) == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

func share(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// unitOf derives a per-layer metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_share"):
		return "share"
	case strings.HasSuffix(name, "bytes_per_peer"):
		return "B"
	}
	return "count"
}

// writeSpans writes every traced job's spans to .bench_build/ in the
// current directory and prints the first job's span tree.
func writeSpans(s spec, f runFlags, reps []jobReport) error {
	all := make([][]span, len(reps))
	for i, r := range reps {
		all[i] = r.Spans
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf(".bench_build/spans-%s-seed%d.json", s.name, f.seed)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans of %d traced jobs written to %s; first job:\n", len(reps), path)
	w := bufio.NewWriter(os.Stdout)
	for _, sp := range reps[0].Spans {
		fmt.Fprintf(w, "  %-26s %8.4fs  [%.4f .. %.4f] parent %d\n", sp.Name, sp.End-sp.Start, sp.Start, sp.End, sp.Parent)
	}
	return w.Flush()
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the default,
// exclusive method), by which run-to-run spreads are judged. A single value
// is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
