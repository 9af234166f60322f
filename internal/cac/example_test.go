package cac_test

import (
	"fmt"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/traffic"
)

// ExampleDecideAll routes a request batch through a controller's native
// batch path. Every request in one DecideAll call is decided against
// the same station snapshot (Decide never mutates); here the station
// already carries 5 BU, so a new voice call would dip into the guard
// band and is rejected while a handoff may consume it.
func ExampleDecideAll() {
	bs, err := cell.NewBaseStation(geo.Hex{}, geo.Point{}, 12)
	if err != nil {
		panic(err)
	}
	if _, err := bs.Admit(cell.Call{ID: 99, Class: traffic.Voice, BU: 5}); err != nil {
		panic(err)
	}
	ctrl, err := cac.NewGuardChannel(4) // reserve 4 BU for handoffs
	if err != nil {
		panic(err)
	}
	reqs := []cac.Request{
		{Call: cell.Call{ID: 1, Class: traffic.Voice, BU: 5}, Station: bs},
		{Call: cell.Call{ID: 2, Class: traffic.Text, BU: 1}, Station: bs},
		{Call: cell.Call{ID: 3, Class: traffic.Voice, BU: 5}, Station: bs, Handoff: true},
	}
	decisions, err := cac.DecideAll(ctrl, reqs)
	if err != nil {
		panic(err)
	}
	for i, d := range decisions {
		fmt.Printf("call %d: %s\n", reqs[i].Call.ID, d)
	}
	// Output:
	// call 1: reject
	// call 2: accept
	// call 3: accept
}
