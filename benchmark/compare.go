package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// minPairs is the fewest parent/change pairs a claim may rest on.
const minPairs = 10

// compareMain compares paired result sets of a parent and a change commit.
// Each side is a directory holding <workload>.jsonl files, one run's final
// result line per line; line i of the parent pairs with line i of the
// change (scripts should alternate which side runs first, see pairs.sh).
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parent := fs.String("parent", "", "directory of the parent commit's result lines")
	change := fs.String("change", "", "directory of the change's result lines")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition (metrics, directions, bounds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "compare: --parent and --change are required")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	metrics := append(append([]benchMetric{}, bench.EndToEnd...), bench.PerLayer...)
	worse := false
	for _, w := range bench.Workloads {
		ps, perr := readResults(filepath.Join(*parent, w.Name+".jsonl"))
		cs, cerr := readResults(filepath.Join(*change, w.Name+".jsonl"))
		if os.IsNotExist(perr) && os.IsNotExist(cerr) {
			continue
		}
		if perr != nil || cerr != nil {
			fmt.Fprintln(os.Stderr, "compare:", w.Name, perr, cerr)
			return 2
		}
		n := min(len(ps), len(cs))
		fmt.Printf("== %s: %d pairs\n", w.Name, n)
		if n < minPairs {
			fmt.Printf("fewer than %d pairs: medians only, no verdicts\n", minPairs)
		}
		// A gain does not count when the change fails more operations than
		// the parent, or fails its output checks.
		pf, cf := failures(ps[:n]), failures(cs[:n])
		withhold := ""
		switch {
		case cf.incorrect > 0:
			withhold = "gain withheld (change failed its output checks)"
			worse = true
			fmt.Printf("change failed its output checks in %d of %d runs\n", cf.incorrect, n)
		case cf.failed > pf.failed:
			withhold = "gain withheld (change fails more operations)"
			fmt.Printf("change fails more operations than the parent (%d against %d): no gain counts\n", cf.failed, pf.failed)
		}
		fmt.Printf("%-28s %-34s %-34s %6s  %s\n", "metric", "parent median [q1..q3]", "change median [q1..q3]", "won", "verdict")
		for _, m := range metrics {
			pv, cv := valuesOf(ps[:n], m.Name), valuesOf(cs[:n], m.Name)
			if len(pv) < n || len(cv) < n || n == 0 {
				continue
			}
			c := judge(m, pv, cv)
			if n < minPairs {
				c.verdict = "too few pairs"
			} else if c.verdict == "improved" && withhold != "" {
				c.verdict = withhold
			}
			if c.verdict == "worse" {
				worse = true
			}
			fmt.Printf("%-28s %-34s %-34s %5.0f%%  %s\n", m.Name, spread(pv), spread(cv), 100*c.won, c.verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// readResults reads one result per line, skipping lines that are not one.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if json.Unmarshal([]byte(line), &r) == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// tally is what one side's runs failed.
type tally struct {
	failed    int // failed operations, summed over the runs
	incorrect int // runs whose output checks failed
}

func failures(rs []result) tally {
	var t tally
	for _, r := range rs {
		t.failed += r.Failed
		if !r.Correct {
			t.incorrect++
		}
	}
	return t
}

func valuesOf(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func spread(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g..%.5g]", q2, q1, q3)
}

type comparison struct {
	won     float64 // share of pairs the change won; ties count for neither
	verdict string
}

// judge applies the pairing rules: a gain needs the change to win at least
// nine tenths of the pairs and the medians to differ by more than the
// parent's own quartile spread. Without a gain, a bounded metric is "worse"
// when the change's median is worse than the parent's by more than the
// bound, "unresolved" when the parent's spread is itself wider than the
// bound (unless every change run beats every parent run), and "no worse
// within bound" otherwise.
func judge(m benchMetric, parent, change []float64) comparison {
	sign := 1.0 // positive = worse
	if m.Better == "higher" {
		sign = -1
	}
	wins, losses := 0, 0
	for i := range parent {
		d := sign * (change[i] - parent[i])
		if d < 0 {
			wins++
		} else if d > 0 {
			losses++
		}
	}
	n := float64(len(parent))
	c := comparison{won: float64(wins) / n}
	pq1, pmed, pq3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	delta := sign * (cmed - pmed)
	pspread := pq3 - pq1
	switch {
	case float64(wins) >= 0.9*n && delta < 0 && -delta > pspread:
		c.verdict = "improved"
	case m.Bound == nil:
		if float64(losses) >= 0.9*n && delta > pspread {
			c.verdict = "changed for the worse (no bound)"
		} else {
			c.verdict = "no clear change (no bound)"
		}
	case pmed != 0 && pspread/math.Abs(pmed) > *m.Bound && !allBetter(sign, parent, change):
		c.verdict = "unresolved (spread exceeds bound)"
	case pmed != 0 && delta/math.Abs(pmed) > *m.Bound:
		c.verdict = "worse"
	case pmed == 0 && delta > 0:
		c.verdict = "worse"
	default:
		c.verdict = "no worse within bound"
	}
	return c
}

// allBetter reports whether every change run beats every parent run.
func allBetter(sign float64, parent, change []float64) bool {
	p := append([]float64(nil), parent...)
	c := append([]float64(nil), change...)
	sort.Float64s(p)
	sort.Float64s(c)
	if sign > 0 {
		return c[len(c)-1] < p[0]
	}
	return c[0] > p[len(p)-1]
}
