package experiments

import (
	"fmt"
	"math/rand"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// BatchAdmissionConfig parameterises the batch admission sweep: a
// snapshot of a multi-cell network under load, against which a large
// batch of candidate requests is decided in a single pass through the
// batch pipeline (cac.DecideAll). It is the offline counterpart of the
// event-driven scenarios — capacity planning, controller throughput
// measurement and the ROADMAP's "evaluate many requests per call
// against one station" workload.
type BatchAdmissionConfig struct {
	// NewController builds the controller under test. Required.
	NewController func(net *cell.Network) (cac.Controller, error)
	// Rings is the network size (default 1: seven cells).
	Rings int
	// CellRadiusM is the hex cell radius (default 1500 m).
	CellRadiusM float64
	// CapacityBU is the per-station bandwidth (default 40).
	CapacityBU int
	// ActiveCalls is the number of calls pre-admitted (and tracked by
	// Observer controllers) before the sweep, loading the snapshot.
	// Calls that no longer fit their sampled cell are skipped; the
	// realised count is reported in the result.
	ActiveCalls int
	// Requests is the batch size. Required.
	Requests int
	// Mix is the class mix (default 60/30/10).
	Mix traffic.Mix
	// SpeedKmh samples user speeds (default Span{10, 80}).
	SpeedKmh Span
	// Seed drives all randomness.
	Seed int64
}

func (c BatchAdmissionConfig) withDefaults() BatchAdmissionConfig {
	if c.Rings == 0 {
		c.Rings = 1
	}
	if c.CellRadiusM == 0 {
		c.CellRadiusM = 1500
	}
	if c.CapacityBU == 0 {
		c.CapacityBU = cell.DefaultCapacityBU
	}
	if (c.Mix == traffic.Mix{}) {
		c.Mix = traffic.DefaultMix()
	}
	if (c.SpeedKmh == Span{}) {
		c.SpeedKmh = Span{Min: 10, Max: 80}
	}
	return c
}

// Validate checks the configuration.
func (c BatchAdmissionConfig) Validate() error {
	if c.NewController == nil {
		return fmt.Errorf("experiments: batch admission config needs a controller factory")
	}
	if c.Requests <= 0 {
		return fmt.Errorf("experiments: Requests must be > 0, got %d", c.Requests)
	}
	if c.ActiveCalls < 0 {
		return fmt.Errorf("experiments: ActiveCalls must be >= 0, got %d", c.ActiveCalls)
	}
	if err := c.SpeedKmh.Validate(); err != nil {
		return err
	}
	return c.Mix.Validate()
}

// BatchAdmissionResult aggregates one sweep.
type BatchAdmissionResult struct {
	// ControllerName identifies the scheme under test.
	ControllerName string
	// PreAdmitted is the number of snapshot calls actually loaded.
	PreAdmitted int
	// Requested/Accepted count the batch decisions.
	Requested int
	Accepted  int
	// Decisions holds the per-request outcomes in request order.
	Decisions []cac.Decision
}

// AcceptedPct returns 100 * accepted / requested.
func (r BatchAdmissionResult) AcceptedPct() float64 {
	if r.Requested == 0 {
		return 0
	}
	return 100 * float64(r.Accepted) / float64(r.Requested)
}

// sampleBatchRequest draws one synthetic admission request: a covered
// position with random heading and sampled speed, the station owning
// that position, and a class drawn from the mix.
func sampleBatchRequest(rng *rand.Rand, net *cell.Network, cfg BatchAdmissionConfig, id int) (cac.Request, error) {
	radius := cfg.CellRadiusM * (1.8*float64(cfg.Rings) + 1)
	var pos geo.Point
	var bs *cell.BaseStation
	for tries := 0; ; tries++ {
		pos = geo.Point{
			X: sim.Uniform(rng, -radius, radius),
			Y: sim.Uniform(rng, -radius, radius),
		}
		var err error
		if bs, err = net.StationAt(pos); err == nil {
			break
		}
		if tries > 1000 {
			return cac.Request{}, fmt.Errorf("experiments: could not place a user inside coverage")
		}
	}
	class := cfg.Mix.Sample(rng)
	est := gps.Estimate{
		Pos:        pos,
		HeadingDeg: sim.Uniform(rng, -180, 180),
		SpeedKmh:   cfg.SpeedKmh.Sample(rng),
	}
	return cac.Request{
		Call:    cell.Call{ID: id, Class: class, BU: class.BandwidthUnits()},
		Station: bs,
		Obs:     gps.Observe(est, bs.Pos()),
		Est:     est,
	}, nil
}

// RunBatchAdmission loads the snapshot and decides the whole batch in
// one cac.DecideAll pass. Decisions are identical to calling Decide per
// request (the BatchController contract); only the cost differs.
func RunBatchAdmission(cfg BatchAdmissionConfig) (BatchAdmissionResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return BatchAdmissionResult{}, err
	}
	net, err := cell.NewNetwork(cell.NetworkConfig{
		Rings:       cfg.Rings,
		CellRadiusM: cfg.CellRadiusM,
		CapacityBU:  cfg.CapacityBU,
	})
	if err != nil {
		return BatchAdmissionResult{}, err
	}
	controller, err := cfg.NewController(net)
	if err != nil {
		return BatchAdmissionResult{}, err
	}
	observer, _ := controller.(cac.Observer)
	rng := sim.NewStream(cfg.Seed, "batch")

	result := BatchAdmissionResult{ControllerName: controller.Name()}
	for i := 0; i < cfg.ActiveCalls; i++ {
		req, err := sampleBatchRequest(rng, net, cfg, i+1)
		if err != nil {
			return BatchAdmissionResult{}, err
		}
		if !req.Station.Fits(req.Call.BU) {
			continue
		}
		if _, err := req.Station.Admit(req.Call); err != nil {
			return BatchAdmissionResult{}, err
		}
		if observer != nil {
			observer.OnAdmit(req)
		}
		result.PreAdmitted++
	}
	reqs := make([]cac.Request, cfg.Requests)
	for i := range reqs {
		if reqs[i], err = sampleBatchRequest(rng, net, cfg, 1_000_000+i); err != nil {
			return BatchAdmissionResult{}, err
		}
	}
	decisions, err := cac.DecideAll(controller, reqs)
	if err != nil {
		return BatchAdmissionResult{}, err
	}
	result.Decisions = decisions
	result.Requested = len(decisions)
	for _, d := range decisions {
		if d.Accepted() {
			result.Accepted++
		}
	}
	return result, nil
}
