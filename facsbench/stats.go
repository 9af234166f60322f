package main

import (
	"encoding/json"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples and whether at least minBeyond samples lie beyond it. An
// invalid percentile is still returned so it can be shown, but callers
// must not use it for a pass/fail decision.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the middle value of samples (the mean of the two middle
// values for an even count) without reordering the caller's slice.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns parent's duration minus the part of it that the
// children cover. Children may overlap each other and may stick out of
// the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// dueLatency is an open-loop request's latency: from when it was due to
// be sent, not from when the generator got round to sending it, so a
// stall is charged to every request it delays. late is how far behind
// schedule the generator sent it.
func dueLatency(due, sent, received int64) (latency, late int64) {
	late = sent - due
	if late < 0 {
		late = 0
	}
	return received - due, late
}

// rung is one fixed offered rate of the latency ladder, as measured.
type rung struct {
	Rate, P50MS, P99MS float64
	Sent, Failed       int
	P99Valid           bool
	// TailP50MS is the median latency of the rung's last quarter;
	// LateMS the generator's p99 lateness.
	TailP50MS, LateMS float64
}

// slo is the service-level objective a rung must meet.
type slo struct {
	P99LimitMS float64 `json:"p99_limit_ms"`
	// MaxFailed is the largest tolerated share of failed requests.
	MaxFailed float64 `json:"max_failed_ratio"`
	// MaxLateMS bounds the generator's own p99 lateness; beyond it the
	// rung measured the generator, not the server.
	MaxLateMS float64 `json:"max_late_ms"`
}

// verdict classifies one rung against the objective.
type verdict int

const (
	rungPass verdict = iota
	rungFail
	rungInvalid
)

func (s slo) judge(r rung) verdict {
	if r.LateMS > s.MaxLateMS || !r.P99Valid {
		return rungInvalid
	}
	if r.P99MS > s.P99LimitMS || float64(r.Failed) > s.MaxFailed*float64(r.Sent) ||
		r.TailP50MS > s.P99LimitMS {
		return rungFail
	}
	return rungPass
}

// ladderResult is the outcome of an ascending rate ladder.
type ladderResult struct {
	// Rate is the highest rung passed before the first failure; 0 when
	// the bottom rung already failed.
	Rate float64 `json:"slo_rate"`
	// Below reports that no rung passed; Capped that every rung passed,
	// so the ladder, not the server, bounded Rate.
	Below  bool `json:"below"`
	Capped bool `json:"capped"`
	// Invalid reports that the scan stopped at a rung the generator
	// could not drive on time, before any rung failed.
	Invalid bool `json:"invalid"`
}

// selectLadder scans rungs in ascending rate order and returns the
// highest rate that meets s with every lower rung meeting it too. The
// backlog check rides on TailP50MS: a queue that grows during a rung
// shows as a slow final quarter.
func selectLadder(rungs []rung, s slo) ladderResult {
	var res ladderResult
scan:
	for i, r := range rungs {
		switch s.judge(r) {
		case rungPass:
			res.Rate = r.Rate
			res.Capped = i == len(rungs)-1
		case rungInvalid:
			res.Invalid = true
			break scan
		default:
			break scan
		}
	}
	res.Below = res.Rate == 0 && !res.Invalid
	return res
}

// finite maps a non-finite value to nil, so it shows as null in JSON:
// an infinite latency is a failed request.
func finite(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return v
}

// MarshalJSON renders a rung with failures as null latencies.
func (r rung) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{
		"rate": r.Rate, "sent": r.Sent, "p50_ms": finite(r.P50MS), "p99_ms": finite(r.P99MS),
		"p99_valid": r.P99Valid, "failed": r.Failed, "tail_p50_ms": finite(r.TailP50MS), "late_p99_ms": finite(r.LateMS),
	})
}
