package main

import (
	"math"
	"reflect"
	"testing"
)

// exactCounters are the per-layer counters that are pure functions of the
// seed. Pool reuse, the retained heap and every time are not, and the
// benchmark reports them as spreads instead.
var exactCounters = []string{
	"simnet.sent", "simnet.delivered", "simnet.dropped",
	"overlay.ctl_rpcs_per_peer", "overlay.retries", "overlay.degraded", "vtime.virtual_s",
	"vtime.parked_after_run",
}

// TestSameSeedSameModel runs every workload's traced job twice on one seed
// and requires identical flow records, modelled metrics and exact counters.
func TestSameSeedSameModel(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			cfg, err := s.config(3)
			if err != nil {
				t.Fatal(err)
			}
			var runs [2]tracedRun
			for i := range runs {
				if runs[i], err = s.tracedJob(cfg); err != nil {
					t.Fatal(err)
				}
				if bad := s.check(cfg, runs[i].out); len(bad) > 0 {
					t.Fatalf("run %d fails its output checks: %v", i, bad)
				}
			}
			a, b := runs[0], runs[1]
			if !reflect.DeepEqual(a.out.flows, b.out.flows) {
				t.Fatal("flow records differ between two runs of one seed")
			}
			a50, a90 := xferQuantiles(a.out.flows)
			b50, b90 := xferQuantiles(b.out.flows)
			if a50 != b50 || a90 != b90 {
				t.Fatalf("xfer quantiles differ: %v/%v vs %v/%v", a50, a90, b50, b90)
			}
			for _, name := range exactCounters {
				va, oka := a.counters[name]
				vb, okb := b.counters[name]
				if !oka || !okb || va != vb {
					t.Errorf("%s: %v (%v) vs %v (%v)", name, va, oka, vb, okb)
				}
			}
		})
	}
}

// TestTracedMatchesUntraced checks the traced job's re-assembly of the
// experiments cell against experiments.RunWorkload on the workloads whose
// cells it rebuilds from layer constructors.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"dissem", "faults"} {
		s, _ := specByName(name)
		cfg, err := s.config(5)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.tracedJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.job(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.out.flows, plain.flows) {
			t.Errorf("%s: traced flow records differ from RunWorkload's", name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the method the run spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}
