package facs_test

import (
	"fmt"
	"strings"
	"testing"

	"facs"
)

func TestPublicSystemRoundTrip(t *testing.T) {
	system, err := facs.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if system.Name() != "facs" {
		t.Fatalf("Name = %q", system.Name())
	}
	obs := facs.Observation{SpeedKmh: 60, AngleDeg: 0, DistanceKm: 2}
	ev, err := system.Evaluate(obs, facs.Voice.BandwidthUnits(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Accepted || ev.Grade != facs.GradeAccept {
		t.Fatalf("empty cell should yield a full accept, got %+v", ev)
	}
	ev, err = system.Evaluate(obs, facs.Voice.BandwidthUnits(), 40, false)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accepted {
		t.Fatalf("full cell should reject, got %+v", ev)
	}
}

func TestPublicNetworkAndStation(t *testing.T) {
	net, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	if net.NumCells() != 7 {
		t.Fatalf("NumCells = %d", net.NumCells())
	}
	bs, err := net.StationAt(facs.Point{})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Capacity() != facs.DefaultCapacityBU {
		t.Fatalf("Capacity = %d", bs.Capacity())
	}
	if _, err := bs.Admit(facs.Call{ID: 1, Class: facs.Video, BU: 10}); err != nil {
		t.Fatal(err)
	}
	if bs.RTC() != 10 || bs.NRTC() != 0 {
		t.Fatalf("counters RTC=%d NRTC=%d", bs.RTC(), bs.NRTC())
	}
}

func TestPublicBaselines(t *testing.T) {
	var controllers []facs.Controller
	controllers = append(controllers, facs.CompleteSharing{})
	g, err := facs.NewGuardChannel(8)
	if err != nil {
		t.Fatal(err)
	}
	controllers = append(controllers, g)
	p, err := facs.NewThresholdPolicy(map[facs.Class]int{facs.Video: 10})
	if err != nil {
		t.Fatal(err)
	}
	controllers = append(controllers, p)
	net, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := facs.NewSCC(facs.SCCConfig{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	controllers = append(controllers, s)
	controllers = append(controllers, facs.MustSystem())
	seen := map[string]bool{}
	for _, c := range controllers {
		if c.Name() == "" || seen[c.Name()] {
			t.Fatalf("controller name %q empty or duplicated", c.Name())
		}
		seen[c.Name()] = true
	}
}

func TestPublicExperimentRoundTrip(t *testing.T) {
	res, err := facs.RunSingleCell(facs.SingleCellConfig{
		Controller:  facs.MustSystem(),
		NumRequests: 20,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requested != 20 {
		t.Fatalf("Requested = %d", res.Requested)
	}
	mres, err := facs.RunMultiCell(facs.MultiCellConfig{
		NewController: facs.FACSFactory(),
		NumRequests:   20,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mres.ControllerName != "facs" {
		t.Fatalf("ControllerName = %q", mres.ControllerName)
	}
}

func TestPublicChartAndCSV(t *testing.T) {
	s := facs.Series{Label: "demo"}
	s.Append(1, 2)
	s.Append(3, 4)
	if out := facs.Chart([]facs.Series{s}, facs.ChartOptions{Title: "t"}); !strings.Contains(out, "demo") {
		t.Fatal("chart missing legend")
	}
	if out := facs.CSV([]facs.Series{s}); !strings.HasPrefix(out, "x,demo") {
		t.Fatalf("csv = %q", out)
	}
	if out := facs.Table([]facs.Series{s}); !strings.Contains(out, "2.00") {
		t.Fatalf("table = %q", out)
	}
}

func TestDefaultTrafficMix(t *testing.T) {
	mix := facs.DefaultTrafficMix()
	if mix.Text != 0.6 || mix.Voice != 0.3 || mix.Video != 0.1 {
		t.Fatalf("mix = %+v", mix)
	}
}

// ExampleSystem_Evaluate demonstrates the two-stage fuzzy decision for a
// well-predicted user at increasing cell occupancy.
func ExampleSystem_Evaluate() {
	system := facs.MustSystem()
	obs := facs.Observation{SpeedKmh: 60, AngleDeg: 0, DistanceKm: 2}
	for _, occupied := range []int{0, 20, 40} {
		ev, err := system.Evaluate(obs, 5, occupied, false)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("occupied %2d BU -> accepted %v\n", occupied, ev.Accepted)
	}
	// Output:
	// occupied  0 BU -> accepted true
	// occupied 20 BU -> accepted true
	// occupied 40 BU -> accepted false
}

// ExampleSystem_Predict demonstrates the prediction stage on its own: the
// correction value collapses as the user turns away from the station.
func ExampleSystem_Predict() {
	system := facs.MustSystem()
	for _, angle := range []float64{0, 90, 180} {
		cv, err := system.Predict(facs.Observation{SpeedKmh: 60, AngleDeg: angle, DistanceKm: 5})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("angle %3.0f -> Cv %.2f\n", angle, cv)
	}
	// Output:
	// angle   0 -> Cv 0.92
	// angle  90 -> Cv 0.11
	// angle 180 -> Cv 0.08
}
