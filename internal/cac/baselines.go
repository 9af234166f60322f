package cac

import (
	"fmt"
	"io"
	"sort"

	"facs/internal/cell"
	"facs/internal/snap"
	"facs/internal/traffic"
)

// CompleteSharing is the simplest CAC scheme discussed in the paper's
// introduction: admit whenever enough free channels exist. It is fast but
// unfair to wide calls and blind to mobility.
type CompleteSharing struct{}

var _ CellLocal = CompleteSharing{}

// Name implements Controller.
func (CompleteSharing) Name() string { return "complete-sharing" }

// CellLocal implements CellLocal: the decision reads only the request's
// station.
func (CompleteSharing) CellLocal() {}

// Decide implements Controller.
func (CompleteSharing) Decide(req Request) (Decision, error) {
	if err := req.Validate(); err != nil {
		return Reject, err
	}
	if req.Station.Fits(req.Call.BU) {
		return Accept, nil
	}
	return Reject, nil
}

// GuardChannel reserves a fixed number of bandwidth units for handoff
// calls: new calls are admitted only into Free - GuardBU, handoffs into
// the full free pool. This is the classical way to prioritise handoffs
// over new calls ("users are much more sensitive to call dropping than to
// call blocking").
type GuardChannel struct {
	// GuardBU is the bandwidth reserved for handoffs.
	GuardBU int
}

var (
	_ Controller      = GuardChannel{}
	_ BatchController = GuardChannel{}
	_ CellLocal       = GuardChannel{}
	_ Snapshotter     = GuardChannel{}
)

// NewGuardChannel validates and constructs the scheme.
func NewGuardChannel(guardBU int) (GuardChannel, error) {
	if guardBU < 0 {
		return GuardChannel{}, fmt.Errorf("cac: guard bandwidth must be >= 0, got %d", guardBU)
	}
	return GuardChannel{GuardBU: guardBU}, nil
}

// Name implements Controller.
func (g GuardChannel) Name() string { return "guard-channel" }

// CellLocal implements CellLocal: the decision reads only the request's
// station free pool.
func (GuardChannel) CellLocal() {}

// Decide implements Controller.
func (g GuardChannel) Decide(req Request) (Decision, error) {
	if err := req.Validate(); err != nil {
		return Reject, err
	}
	free := req.Station.Free()
	if req.Handoff {
		if req.Call.BU <= free {
			return Accept, nil
		}
		return Reject, nil
	}
	if req.Call.BU <= free-g.GuardBU {
		return Accept, nil
	}
	return Reject, nil
}

// DecideBatchInto implements BatchController with zero allocations:
// the free-pool read is amortised across consecutive requests on the
// same station (Decide must not mutate stations, so occupancy is stable
// for the batch).
//
//facs:hotpath
func (g GuardChannel) DecideBatchInto(reqs []Request, out []Decision) error {
	var station *cell.BaseStation
	free := 0
	for i := range reqs {
		req := &reqs[i]
		if err := req.Validate(); err != nil {
			return err
		}
		if req.Station != station {
			station = req.Station
			free = station.Free()
		}
		budget := free
		if !req.Handoff {
			budget = free - g.GuardBU
		}
		if req.Call.BU <= budget {
			out[i] = Accept
		} else {
			out[i] = Reject
		}
	}
	return nil
}

// guardSnapshotHash fingerprints everything a guard-channel decision
// depends on beyond station state: the reserved bandwidth.
func (g GuardChannel) guardSnapshotHash() uint64 {
	return snap.NewHasher().Str("guard-channel").Int(g.GuardBU).Sum()
}

// SnapshotTo implements cac.Snapshotter. The guard channel is
// stateless (stations carry all occupancy), so the payload is empty;
// the envelope still pins the configuration, so restoring a snapshot
// taken under a different guard bandwidth fails stale.
func (g GuardChannel) SnapshotTo(w io.Writer) error {
	return snap.NewEncoder(w, "guard-channel", g.guardSnapshotHash()).Close()
}

// RestoreFrom implements cac.Snapshotter: validation only (there is no
// state to install).
func (g GuardChannel) RestoreFrom(r io.Reader) error {
	d, err := snap.NewDecoder(r, "guard-channel", g.guardSnapshotHash())
	if err != nil {
		return err
	}
	return d.Close()
}

// ThresholdPolicy is the Multi-Priority Threshold policy shape referenced
// by the paper ([4], Bartolini & Chlamtac): each class may only occupy
// bandwidth up to its own threshold. Admission requires both the global
// fit and the class budget.
type ThresholdPolicy struct {
	// MaxBU maps each class to its occupancy ceiling in BU. Classes
	// absent from the map are uncapped (bounded only by capacity).
	MaxBU map[traffic.Class]int
}

var (
	_ Controller      = ThresholdPolicy{}
	_ BatchController = ThresholdPolicy{}
	_ CellLocal       = ThresholdPolicy{}
	_ Snapshotter     = ThresholdPolicy{}
)

// NewThresholdPolicy validates and constructs the policy.
func NewThresholdPolicy(maxBU map[traffic.Class]int) (ThresholdPolicy, error) {
	// Validate in sorted class order so a table with several bad
	// entries reports the same error on every run, not whichever
	// entry map iteration happened to visit first.
	classes := make([]traffic.Class, 0, len(maxBU))
	for class := range maxBU { //facs:orderless key collection; sorted before any order-sensitive use
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, class := range classes {
		limit := maxBU[class]
		if !class.Valid() {
			return ThresholdPolicy{}, fmt.Errorf("cac: threshold for invalid class %v", class)
		}
		if limit < 0 {
			return ThresholdPolicy{}, fmt.Errorf("cac: threshold for %v must be >= 0, got %d", class, limit)
		}
	}
	copied := make(map[traffic.Class]int, len(maxBU))
	for k, v := range maxBU { //facs:orderless map-to-map copy; insertion order is unobservable
		copied[k] = v
	}
	return ThresholdPolicy{MaxBU: copied}, nil
}

// Name implements Controller.
func (ThresholdPolicy) Name() string { return "multi-priority-threshold" }

// CellLocal implements CellLocal: per-class occupancy is derived from
// the request's station alone.
func (ThresholdPolicy) CellLocal() {}

// Decide implements Controller.
func (p ThresholdPolicy) Decide(req Request) (Decision, error) {
	if err := req.Validate(); err != nil {
		return Reject, err
	}
	if !req.Station.Fits(req.Call.BU) {
		return Reject, nil
	}
	limit, capped := p.MaxBU[req.Call.Class]
	if !capped {
		return Accept, nil
	}
	if req.Station.ClassBU(req.Call.Class)+req.Call.BU <= limit {
		return Accept, nil
	}
	return Reject, nil
}

// thresholdSnapshotHash fingerprints the per-class ceilings in sorted
// class order, so map iteration order never perturbs the hash.
func (p ThresholdPolicy) thresholdSnapshotHash() uint64 {
	classes := make([]traffic.Class, 0, len(p.MaxBU))
	for class := range p.MaxBU { //facs:orderless key collection; hashed in sorted class order below
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	h := snap.NewHasher().Str("multi-priority-threshold")
	for _, class := range classes {
		h.Int(int(class)).Int(p.MaxBU[class])
	}
	return h.Sum()
}

// SnapshotTo implements cac.Snapshotter. The policy is stateless
// (per-class occupancy lives on the stations), so the payload is
// empty; the envelope pins the threshold table.
func (p ThresholdPolicy) SnapshotTo(w io.Writer) error {
	return snap.NewEncoder(w, "multi-priority-threshold", p.thresholdSnapshotHash()).Close()
}

// RestoreFrom implements cac.Snapshotter: validation only.
func (p ThresholdPolicy) RestoreFrom(r io.Reader) error {
	d, err := snap.NewDecoder(r, "multi-priority-threshold", p.thresholdSnapshotHash())
	if err != nil {
		return err
	}
	return d.Close()
}

// DecideBatchInto implements BatchController with zero allocations:
// the station's free pool is read once per station run (Decide must not
// mutate stations, so occupancy is stable for the batch); per-class
// occupancy comes from the station's O(1) class counters.
//
//facs:hotpath
func (p ThresholdPolicy) DecideBatchInto(reqs []Request, out []Decision) error {
	var station *cell.BaseStation
	free := 0
	for i := range reqs {
		req := &reqs[i]
		if err := req.Validate(); err != nil {
			return err
		}
		if req.Station != station {
			station = req.Station
			free = station.Free()
		}
		if req.Call.BU > free {
			out[i] = Reject
			continue
		}
		limit, capped := p.MaxBU[req.Call.Class]
		if !capped || req.Station.ClassBU(req.Call.Class)+req.Call.BU <= limit {
			out[i] = Accept
		} else {
			out[i] = Reject
		}
	}
	return nil
}
