package cac

import (
	"strings"
	"testing"

	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/traffic"
)

func station(t *testing.T, capacity int) *cell.BaseStation {
	t.Helper()
	bs, err := cell.NewBaseStation(geo.Hex{}, geo.Point{}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func fill(t *testing.T, bs *cell.BaseStation, class traffic.Class, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		c := cell.Call{ID: 1000 + bs.NumCalls() + i*7919, Class: class, BU: class.BandwidthUnits()}
		if _, err := bs.Admit(c); err != nil {
			t.Fatal(err)
		}
	}
}

func req(bs *cell.BaseStation, class traffic.Class, handoff bool) Request {
	return Request{
		Call:    cell.Call{ID: 1, Class: class, BU: class.BandwidthUnits()},
		Station: bs,
		Handoff: handoff,
	}
}

func TestDecisionStringAndAccepted(t *testing.T) {
	if Accept.String() != "accept" || Reject.String() != "reject" {
		t.Fatal("Decision stringer mismatch")
	}
	if !strings.Contains(Decision(9).String(), "9") {
		t.Fatal("unknown decision should include value")
	}
	if !Accept.Accepted() || Reject.Accepted() {
		t.Fatal("Accepted() mismatch")
	}
}

func TestRequestValidate(t *testing.T) {
	bs := station(t, 40)
	good := req(bs, traffic.Voice, false)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{Call: cell.Call{ID: 1, Class: traffic.Voice, BU: 5}},                 // no station
		{Call: cell.Call{ID: 1, Class: traffic.Voice, BU: 0}, Station: bs},    // zero BU
		{Call: cell.Call{ID: 1, Class: traffic.Class(9), BU: 5}, Station: bs}, // bad class
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("request %d should be invalid", i)
		}
	}
}

func TestCompleteSharing(t *testing.T) {
	cs := CompleteSharing{}
	if cs.Name() != "complete-sharing" {
		t.Fatal("name mismatch")
	}
	bs := station(t, 40)
	d, err := cs.Decide(req(bs, traffic.Video, false))
	if err != nil || d != Accept {
		t.Fatalf("empty station should accept video: %v %v", d, err)
	}
	fill(t, bs, traffic.Video, 3) // 30 BU used, 10 free
	if d, _ := cs.Decide(req(bs, traffic.Video, false)); d != Accept {
		t.Fatal("10 free should fit exactly 10")
	}
	fill(t, bs, traffic.Voice, 2) // 40 used
	if d, _ := cs.Decide(req(bs, traffic.Text, false)); d != Reject {
		t.Fatal("full station should reject")
	}
	if _, err := cs.Decide(Request{}); err == nil {
		t.Fatal("invalid request should error")
	}
}

func TestGuardChannel(t *testing.T) {
	if _, err := NewGuardChannel(-1); err == nil {
		t.Fatal("negative guard should error")
	}
	g, err := NewGuardChannel(10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "guard-channel" {
		t.Fatal("name mismatch")
	}
	bs := station(t, 40)
	fill(t, bs, traffic.Video, 3) // 30 used, 10 free = exactly the guard
	// New call: only free - guard = 0 available.
	if d, _ := g.Decide(req(bs, traffic.Text, false)); d != Reject {
		t.Fatal("new call must not consume the guard band")
	}
	// Handoff may use the guard band.
	if d, _ := g.Decide(req(bs, traffic.Voice, true)); d != Accept {
		t.Fatal("handoff should use the guard band")
	}
	// Handoff still bounded by physical capacity.
	fill(t, bs, traffic.Voice, 2) // full
	if d, _ := g.Decide(req(bs, traffic.Text, true)); d != Reject {
		t.Fatal("handoff into full station should reject")
	}
	if _, err := g.Decide(Request{}); err == nil {
		t.Fatal("invalid request should error")
	}
}

func TestThresholdPolicy(t *testing.T) {
	if _, err := NewThresholdPolicy(map[traffic.Class]int{traffic.Class(5): 1}); err == nil {
		t.Fatal("invalid class should error")
	}
	if _, err := NewThresholdPolicy(map[traffic.Class]int{traffic.Voice: -1}); err == nil {
		t.Fatal("negative threshold should error")
	}
	p, err := NewThresholdPolicy(map[traffic.Class]int{traffic.Video: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "multi-priority-threshold" {
		t.Fatal("name mismatch")
	}
	bs := station(t, 40)
	if d, _ := p.Decide(req(bs, traffic.Video, false)); d != Accept {
		t.Fatal("first video fits its 10 BU budget")
	}
	fill(t, bs, traffic.Video, 1) // video now at its 10 BU cap
	if d, _ := p.Decide(req(bs, traffic.Video, false)); d != Reject {
		t.Fatal("video beyond class budget should reject")
	}
	// Uncapped classes limited only by capacity.
	if d, _ := p.Decide(req(bs, traffic.Voice, false)); d != Accept {
		t.Fatal("voice is uncapped and fits")
	}
	fill(t, bs, traffic.Voice, 6) // 10 + 30 = full
	if d, _ := p.Decide(req(bs, traffic.Text, false)); d != Reject {
		t.Fatal("full station should reject regardless of budgets")
	}
	if _, err := p.Decide(Request{}); err == nil {
		t.Fatal("invalid request should error")
	}
}

func TestThresholdPolicyCopiesMap(t *testing.T) {
	src := map[traffic.Class]int{traffic.Video: 10}
	p, err := NewThresholdPolicy(src)
	if err != nil {
		t.Fatal(err)
	}
	src[traffic.Video] = 40
	if p.MaxBU[traffic.Video] != 10 {
		t.Fatal("policy must copy the threshold map")
	}
}
