package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		p     float64
		want  float64
		valid bool
	}{
		{1000, 0.99, 990, true},  // exactly ten beyond
		{999, 0.99, 990, false},  // nine beyond
		{100, 0.5, 50, true},     // fifty beyond
		{19, 0.5, 10, false},     // nine beyond
		{20, 0.5, 10, true},      // ten beyond
		{2000, 0.99, 1980, true}, // twenty beyond
	}
	for _, c := range cases {
		got, valid := percentile(seq(c.n), c.p)
		if got != c.want || valid != c.valid {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, valid, c.want, c.valid)
		}
	}
	if _, valid := percentile(nil, 0.5); valid {
		t.Error("percentile of no samples must be invalid")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"unsorted overlap chain", []interval{{50, 70}, {10, 30}, {25, 55}}, 40},
		{"sticking out both sides", []interval{{-20, 10}, {90, 150}}, 80},
		{"outside entirely", []interval{{100, 120}, {-5, 0}}, 100},
		{"covering", []interval{{-1, 101}}, 0},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDueLatencyChargesGeneratorLateness(t *testing.T) {
	// On time: latency is the round trip.
	if lat, late := dueLatency(1000, 1000, 1500); lat != 500 || late != 0 {
		t.Errorf("on time: %d, %d", lat, late)
	}
	// The generator sent 300 ns late: the request still counts from
	// when it was due, and the lateness is reported.
	if lat, late := dueLatency(1000, 1300, 1500); lat != 500 || late != 300 {
		t.Errorf("late: %d, %d", lat, late)
	}
	// Sending early never makes lateness negative.
	if _, late := dueLatency(1000, 900, 1500); late != 0 {
		t.Errorf("early: late %d", late)
	}
}

func TestSelectLadder(t *testing.T) {
	s := slo{P99LimitMS: 10, MaxFailed: 0.01, MaxLateMS: 5}
	ok := func(rate float64) rung {
		return rung{Rate: rate, Sent: 1000, P50MS: 1, P99MS: 5, P99Valid: true, TailP50MS: 1}
	}
	slow := func(rate float64) rung { r := ok(rate); r.P99MS = 20; return r }
	failing := func(rate float64) rung { r := ok(rate); r.Failed = 11; return r }
	backlog := func(rate float64) rung { r := ok(rate); r.TailP50MS = math.Inf(1); return r }
	late := func(rate float64) rung { r := ok(rate); r.LateMS = 6; return r }
	thin := func(rate float64) rung { r := ok(rate); r.P99Valid = false; return r }

	cases := []struct {
		name  string
		rungs []rung
		want  ladderResult
	}{
		{"knee inside", []rung{ok(1), ok(2), slow(3), ok(4)}, ladderResult{Rate: 2}},
		{"top rung passes", []rung{ok(1), ok(2), ok(3)}, ladderResult{Rate: 3, Capped: true}},
		{"bottom rung fails", []rung{slow(1), ok(2)}, ladderResult{Below: true}},
		{"failures break the objective", []rung{ok(1), failing(2)}, ladderResult{Rate: 1}},
		{"growing backlog breaks the objective", []rung{ok(1), backlog(2)}, ladderResult{Rate: 1}},
		{"late generator is invalid, not slow", []rung{ok(1), late(2), ok(3)}, ladderResult{Rate: 1, Invalid: true}},
		{"too few samples is invalid", []rung{thin(1)}, ladderResult{Invalid: true}},
		{"empty ladder", nil, ladderResult{Below: true}},
	}
	for _, c := range cases {
		if got := selectLadder(c.rungs, s); got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}
