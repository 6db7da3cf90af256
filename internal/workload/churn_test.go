package workload

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/simnet"
)

func ev(at time.Duration, label string, kind scenario.ChurnEventKind) scenario.ChurnEvent {
	return scenario.ChurnEvent{At: at, Label: label, Kind: kind}
}

func TestScheduleIntervals(t *testing.T) {
	s := NewSchedule([]scenario.ChurnEvent{
		ev(0, "a", scenario.ChurnJoin),
		ev(2*time.Minute, "a", scenario.ChurnLeave),
		ev(5*time.Minute, "a", scenario.ChurnJoin),
		ev(time.Minute, "b", scenario.ChurnJoin),
		// Redundant transitions must be idempotent:
		ev(90*time.Second, "b", scenario.ChurnJoin),
		ev(3*time.Minute, "b", scenario.ChurnLeave),
		ev(4*time.Minute, "b", scenario.ChurnLeave),
	})
	if got := s.Departures(); got != 2 {
		t.Fatalf("Departures = %d, want 2 (redundant leaves must not count)", got)
	}
	if got := s.Initial(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Initial = %v, want [a]", got)
	}
	cases := []struct {
		label string
		at    time.Duration
		live  bool
	}{
		{"a", 0, true},
		{"a", 2*time.Minute - 1, true},
		{"a", 2 * time.Minute, false}, // leave boundary: down at the instant
		{"a", 4 * time.Minute, false},
		{"a", 5 * time.Minute, true}, // rejoin boundary: up at the instant
		{"a", time.Hour, true},       // open interval extends forever
		{"b", 0, false},
		{"b", 2 * time.Minute, true},
		{"b", 3 * time.Minute, false},
		{"b", 10 * time.Minute, false},
		{"zzz", 0, false}, // unscheduled peers are never booted, hence never up
	}
	for _, c := range cases {
		if got := s.LiveAt(c.label, c.at); got != c.live {
			t.Fatalf("LiveAt(%s, %v) = %v, want %v", c.label, c.at, got, c.live)
		}
	}
}

func TestScheduleDownThroughout(t *testing.T) {
	s := NewSchedule([]scenario.ChurnEvent{
		ev(0, "a", scenario.ChurnJoin),
		ev(2*time.Minute, "a", scenario.ChurnLeave),
		ev(6*time.Minute, "a", scenario.ChurnJoin),
	})
	cases := []struct {
		from, to time.Duration
		down     bool
	}{
		{3 * time.Minute, 5 * time.Minute, true},
		{time.Minute, 3 * time.Minute, false},      // overlaps the up interval
		{5 * time.Minute, 7 * time.Minute, false},  // overlaps the rejoin
		{-time.Minute, time.Minute, false},         // negative from clamps to 0 (up)
		{2 * time.Minute, 6*time.Minute - 1, true}, // exactly the gap
	}
	for _, c := range cases {
		if got := s.DownThroughout("a", c.from, c.to); got != c.down {
			t.Fatalf("DownThroughout(a, %v, %v) = %v, want %v", c.from, c.to, got, c.down)
		}
	}
}

func TestScheduleCanonicalizesEventOrder(t *testing.T) {
	shuffled := []scenario.ChurnEvent{
		ev(3*time.Minute, "a", scenario.ChurnJoin),
		ev(0, "a", scenario.ChurnJoin),
		ev(time.Minute, "a", scenario.ChurnLeave),
	}
	s := NewSchedule(shuffled)
	if !s.LiveAt("a", 2*time.Minute+30*time.Second) == false {
		t.Fatal("unsorted input produced wrong intervals")
	}
	if s.Departures() != 1 {
		t.Fatalf("Departures = %d", s.Departures())
	}
}

func TestResolveSourcesRemapsDepartedOnly(t *testing.T) {
	ls := []string{"a", "b", "c"}
	s := NewSchedule([]scenario.ChurnEvent{
		ev(0, "a", scenario.ChurnJoin),
		ev(time.Minute, "a", scenario.ChurnLeave),
		ev(0, "b", scenario.ChurnJoin),
		ev(0, "c", scenario.ChurnJoin),
		ev(30*time.Second, "c", scenario.ChurnLeave),
	})
	flows := []Flow{
		{Index: 0, Source: "a", Model: "economic"}, // starts while a is up
		{Index: 1, Source: "a", Model: "economic"}, // starts after a left -> remap to b
		{Index: 2, Source: "", Sink: "b"},          // controller flow untouched
	}
	startOf := func(f Flow) time.Duration {
		if f.Index == 0 {
			return 10 * time.Second
		}
		return 2 * time.Minute
	}
	got := ResolveSources(flows, s, ls, startOf)
	if got[0].Source != "a" {
		t.Fatalf("live source remapped to %q", got[0].Source)
	}
	if got[1].Source != "b" {
		t.Fatalf("departed source remapped to %q, want b (next live label)", got[1].Source)
	}
	if got[2].Source != "" {
		t.Fatalf("controller flow gained source %q", got[2].Source)
	}
	// The input slice must not be mutated (flow sets are reused across reps).
	if flows[1].Source != "a" {
		t.Fatal("ResolveSources mutated its input")
	}
}

func TestStaggerIsPureAndBounded(t *testing.T) {
	horizon := 10 * time.Minute
	a, b := Stagger(7, horizon), Stagger(7, horizon)
	spread := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		f := Flow{Index: i}
		if a(f) != b(f) {
			t.Fatalf("stagger of flow %d not deterministic", i)
		}
		if a(f) < 0 || a(f) >= horizon {
			t.Fatalf("stagger of flow %d = %v outside [0, horizon)", i, a(f))
		}
		spread[a(f)] = true
	}
	if len(spread) < 32 {
		t.Fatalf("only %d distinct offsets across 64 flows", len(spread))
	}
	if reflect.DeepEqual(a(Flow{Index: 1}), Stagger(8, horizon)(Flow{Index: 1})) {
		t.Fatal("different seeds drew identical stagger")
	}
}

// TestConductorJoinWarningUsesLogf pins the warning routing of a failed
// churn join: the warning lands in the conductor's Logf (the cell's
// logger) and the failure stays readable through Err.
func TestConductorJoinWarningUsesLogf(t *testing.T) {
	net := simnet.New(3)
	host := net.MustAddNode("ctl", simnet.DefaultProfile())
	schedule := NewSchedule([]scenario.ChurnEvent{ev(10*time.Second, "late", scenario.ChurnJoin)})
	bootErr := errors.New("no such node")
	cond := NewConductor(host, schedule, 0, time.Minute, func(string) (*overlay.Client, error) {
		return nil, bootErr
	})
	var got []string
	cond.Logf = func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	}
	net.Run(func() {
		if err := cond.BootInitial(); err != nil {
			t.Errorf("BootInitial: %v", err)
		}
		cond.Start()
	})
	if len(got) != 1 || !strings.Contains(got[0], "churn join of late failed: no such node") {
		t.Fatalf("supplied logger got %q", got)
	}
	if !errors.Is(cond.Err(), bootErr) {
		t.Fatalf("Err() = %v, want the boot error", cond.Err())
	}
}
