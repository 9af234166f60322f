package scc_test

import (
	"fmt"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/scc"
	"facs/internal/traffic"
)

// ExampleLedger admits a mobile through the incrementally maintained
// shadow-cluster controller. The ledger projects the call's future
// bandwidth demand over the cells along its trajectory on OnAdmit and
// folds it back out on OnRelease; decisions are byte-identical to the
// recompute oracle (scc.New) at a fraction of the cost.
func ExampleLedger() {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 1})
	if err != nil {
		panic(err)
	}
	ledger, err := scc.NewLedger(scc.Config{Network: net})
	if err != nil {
		panic(err)
	}

	// A video user in the central cell, heading east at 60 km/h.
	pos := geo.Point{X: 200, Y: 100}
	bs, err := net.StationAt(pos)
	if err != nil {
		panic(err)
	}
	req := cac.Request{
		Call:    cell.Call{ID: 1, Class: traffic.Video, BU: 10},
		Station: bs,
		Est:     gps.Estimate{Pos: pos, HeadingDeg: 0, SpeedKmh: 60},
	}
	d, err := ledger.Decide(req)
	if err != nil {
		panic(err)
	}
	fmt.Println("decision:", d)

	// The caller allocates on accept, then notifies the ledger so the
	// call's demand footprint enters the projection matrix.
	if _, err := bs.Admit(req.Call); err != nil {
		panic(err)
	}
	ledger.OnAdmit(req)
	fmt.Println("tracked calls:", ledger.ActiveCalls())

	ledger.OnRelease(req.Call.ID, bs, 30)
	fmt.Println("tracked calls after release:", ledger.ActiveCalls())
	// Output:
	// decision: accept
	// tracked calls: 1
	// tracked calls after release: 0
}
