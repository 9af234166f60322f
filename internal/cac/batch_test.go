package cac

import (
	"fmt"
	"testing"

	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/traffic"
)

// batchStation builds a station pre-loaded with a deterministic call mix.
func batchStation(t *testing.T, id int, usedVideo, usedVoice, usedText int) *cell.BaseStation {
	t.Helper()
	bs, err := cell.NewBaseStation(geo.Hex{Q: id}, geo.Point{}, cell.DefaultCapacityBU)
	if err != nil {
		t.Fatal(err)
	}
	next := 1000 * id
	admit := func(class traffic.Class, n int) {
		for i := 0; i < n; i++ {
			if _, err := bs.Admit(cell.Call{ID: next, Class: class, BU: class.BandwidthUnits()}); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	admit(traffic.Video, usedVideo)
	admit(traffic.Voice, usedVoice)
	admit(traffic.Text, usedText)
	return bs
}

// batchRequests builds a request workload spanning several stations with
// runs of consecutive same-station requests (the shape the native batch
// paths amortise), mixing classes and handoff flags.
func batchRequests(t *testing.T) []Request {
	t.Helper()
	stations := []*cell.BaseStation{
		batchStation(t, 0, 0, 0, 0),
		batchStation(t, 1, 2, 2, 3), // 33 BU used
		batchStation(t, 2, 3, 1, 5), // full
	}
	classes := []traffic.Class{traffic.Text, traffic.Voice, traffic.Video}
	var reqs []Request
	id := 1
	for _, bs := range stations {
		for run := 0; run < 6; run++ {
			class := classes[run%len(classes)]
			reqs = append(reqs, Request{
				Call:    cell.Call{ID: id, Class: class, BU: class.BandwidthUnits()},
				Station: bs,
				Handoff: run%2 == 1,
			})
			id++
		}
	}
	return reqs
}

// TestDecideAllMatchesSequential asserts that for every baseline scheme
// the batch pipeline — native or adapted — returns exactly the
// per-request Decide outcomes.
func TestDecideAllMatchesSequential(t *testing.T) {
	guard, err := NewGuardChannel(8)
	if err != nil {
		t.Fatal(err)
	}
	threshold, err := NewThresholdPolicy(map[traffic.Class]int{traffic.Video: 10, traffic.Text: 4})
	if err != nil {
		t.Fatal(err)
	}
	controllers := []Controller{CompleteSharing{}, guard, threshold}
	for _, ctrl := range controllers {
		t.Run(ctrl.Name(), func(t *testing.T) {
			reqs := batchRequests(t)
			got, err := DecideAll(ctrl, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(reqs) {
				t.Fatalf("got %d decisions for %d requests", len(got), len(reqs))
			}
			for i, req := range reqs {
				want, err := ctrl.Decide(req)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("%s request %d (%v, handoff=%v): batch %v, sequential %v",
						ctrl.Name(), i, req.Call.Class, req.Handoff, got[i], want)
				}
			}
		})
	}
}

// TestDecideAllUsesNativeBatchPath asserts the adapter dispatches to a
// BatchController implementation instead of looping Decide.
func TestDecideAllUsesNativeBatchPath(t *testing.T) {
	spy := &batchSpy{}
	reqs := batchRequests(t)[:4]
	decisions, err := DecideAll(spy, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !spy.batched {
		t.Fatal("DecideAll should route through DecideBatchInto")
	}
	if spy.decides != 0 {
		t.Fatalf("native path still made %d Decide calls", spy.decides)
	}
	if len(decisions) != len(reqs) {
		t.Fatalf("got %d decisions, want %d", len(decisions), len(reqs))
	}
}

// TestDecideAllPropagatesErrors asserts invalid requests abort both the
// adapted and the native pipeline.
func TestDecideAllPropagatesErrors(t *testing.T) {
	reqs := []Request{{}}
	if _, err := DecideAll(CompleteSharing{}, reqs); err == nil {
		t.Fatal("adapter should propagate validation errors")
	}
	guard, err := NewGuardChannel(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecideAll(guard, reqs); err == nil {
		t.Fatal("native batch should propagate validation errors")
	}
}

type batchSpy struct {
	batched bool
	decides int
}

func (s *batchSpy) Name() string { return "batch-spy" }

func (s *batchSpy) Decide(Request) (Decision, error) {
	s.decides++
	return Accept, nil
}

func (s *batchSpy) DecideBatchInto(reqs []Request, out []Decision) error {
	s.batched = true
	for i := range reqs {
		out[i] = Accept
	}
	return nil
}

var _ fmt.Stringer = Decision(0)

// TestDecideOne asserts the single-request adapter routes through the
// batch pipeline and propagates errors.
func TestDecideOne(t *testing.T) {
	spy := &batchSpy{}
	var scratch [1]Request
	d, err := DecideOne(spy, &scratch, batchRequests(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	if d != Accept || !spy.batched {
		t.Fatalf("DecideOne = %v (batched=%v), want accept via batch path", d, spy.batched)
	}
	if _, err := DecideOne(CompleteSharing{}, &scratch, Request{}); err == nil {
		t.Fatal("invalid request should error")
	}
}

// TestDecideAllIntoDispatch pins the Into pipeline: short buffers are
// rejected, the native batch path is preferred over Decide, and the
// allocation-free implementations (guard, threshold) render identical
// outcomes into a reused buffer with zero allocations.
func TestDecideAllIntoDispatch(t *testing.T) {
	reqs := batchRequests(t)[:4]
	if err := DecideAllInto(CompleteSharing{}, reqs, make([]Decision, 3)); err == nil {
		t.Fatal("short decision buffer should error")
	}
	spy := &batchSpy{}
	out := make([]Decision, len(reqs))
	if err := DecideAllInto(spy, reqs, out); err != nil {
		t.Fatal(err)
	}
	if !spy.batched || spy.decides != 0 {
		t.Fatalf("dispatch order wrong: batched=%v decides=%d", spy.batched, spy.decides)
	}

	guard, err := NewGuardChannel(8)
	if err != nil {
		t.Fatal(err)
	}
	all := batchRequests(t)
	want, err := DecideAll(guard, all)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Decision, len(all))
	avg := testing.AllocsPerRun(20, func() {
		if err := DecideAllInto(guard, all, buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("guard DecideAllInto allocates: %.2f allocs/batch", avg)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("request %d: Into %v, DecideAll %v", i, buf[i], want[i])
		}
	}
}
