package facs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/fuzzy"
	"facs/internal/gps"
)

// DefaultSurfaceGridSize is the per-axis lookup-table resolution used by
// NewCompiled when none is given. See fuzzy.DefaultSurfaceGridSize for
// the accuracy rationale; the golden-equivalence tests pin the realised
// error at this size.
const DefaultSurfaceGridSize = fuzzy.DefaultSurfaceGridSize

// surfaceErrorSafety scales the sampled per-cell interpolation error
// bounds (fuzzy.WithSurfaceErrorMap). A single centre probe can
// under-read the peak error of a cell crossed asymmetrically by a
// t-norm crease; doubling it gives the guard band its margin. The
// golden-equivalence suite verifies empirically that the resulting
// guards are sound (zero decision or grade flips).
const surfaceErrorSafety = 2

// CompiledController is the lookup-table fast path of the FACS: both
// controllers compiled into dense interpolation surfaces
// (FLC1: speed x angle x distance -> Cv; FLC2: Cv x R x Cs -> A/R) at
// construction time, so that a full admission decision costs two
// trilinear interpolations instead of two complete Mamdani inferences.
//
// Accept/reject outcomes and decision grades are protected by a guard
// band: each surface carries per-cell interpolation error bounds, and
// when the interpolated A/R value lands within the propagated bound of
// the accept threshold or a grade boundary, the controller re-runs the
// exact engines for that one request. Everywhere else the fast answer
// is provably on the same side of every boundary as the exact one, so
// decisions and grades match the exact System; the crisp Cv and A/R
// values themselves carry the small interpolation tolerance documented
// in the golden-equivalence test suite (internal/facs/compiled_test.go).
//
// A CompiledController is immutable after construction (the fallback
// counters aside) and safe for concurrent use.
type CompiledController struct {
	sys        *System
	surf1      *fuzzy.Surface
	surf2      *fuzzy.Surface
	boundaries []float64 // accept threshold + grade switch points, on the A/R axis

	fast  atomic.Int64
	exact atomic.Int64
}

var (
	_ cac.Controller      = (*CompiledController)(nil)
	_ cac.BatchController = (*CompiledController)(nil)
	_ cac.CellLocal       = (*CompiledController)(nil)
)

// CellLocal implements cac.CellLocal: like the exact System, a decision
// reads only the request and its station's occupancy against immutable
// surfaces, and the controller is safe for concurrent use — one
// instance may be shared across the shards of a sharded engine.
func (c *CompiledController) CellLocal() {}

// NewCompiled constructs the exact System for the given options, then
// compiles both controllers into surfaces with gridSize uniform nodes
// per axis (gridSize <= 0 selects DefaultSurfaceGridSize). Compilation
// evaluates the exact engines over the whole grid and is sharded
// across CPUs; it is a one-time cost paid to make every subsequent
// decision cheap.
func NewCompiled(gridSize int, opts ...Option) (*CompiledController, error) {
	sys, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return CompileSystem(sys, gridSize)
}

// compileCount counts completed surface compilations process-wide (one
// per compiled System, i.e. per FLC1+FLC2 surface pair). Cached loads
// (CompileSystemCached) do not increment it, which is exactly what the
// cache tests assert: a warm start leaves the counter unchanged.
var compileCount atomic.Int64

// CompileCount returns the number of surface compilations performed by
// this process so far. It is a diagnostic for the load-or-compile
// cache: a service that starts from a warm cache reports zero.
func CompileCount() int64 { return compileCount.Load() }

// CompileSystem compiles an already constructed System into a
// CompiledController without rebuilding it.
func CompileSystem(sys *System, gridSize int) (*CompiledController, error) {
	if sys == nil {
		return nil, fmt.Errorf("facs: compile needs a system")
	}
	if gridSize <= 0 {
		gridSize = DefaultSurfaceGridSize
	}
	surf1, err := fuzzy.NewSurface(sys.FLC1(),
		fuzzy.WithSurfaceGrid(gridSize),
		fuzzy.WithSurfaceErrorMap(surfaceErrorSafety),
	)
	if err != nil {
		return nil, fmt.Errorf("facs: compiling FLC1 surface: %w", err)
	}
	// Request and counter-state inputs are integral bandwidth units in
	// every admission query, so instead of a dense uniform subdivision
	// those two axes carry exactly one node per integer (plus membership
	// corners): every realistic query hits their nodes and reproduces
	// the exact engine with zero error on those axes, confining
	// interpolation to the genuinely continuous Cv axis — and shrinking
	// the table and its compile time by an order of magnitude.
	surf2, err := fuzzy.NewSurface(sys.FLC2(),
		fuzzy.WithSurfaceGrid(gridSize, 2, 2),
		fuzzy.WithSurfaceNodes(VarRequest, integerNodes(sys.params.RequestMax)...),
		fuzzy.WithSurfaceNodes(VarCounter, integerNodes(sys.params.CapacityBU)...),
		fuzzy.WithSurfaceErrorMap(surfaceErrorSafety),
	)
	if err != nil {
		return nil, fmt.Errorf("facs: compiling FLC2 surface: %w", err)
	}
	compileCount.Add(1)
	return newCompiledFromSurfaces(sys, surf1, surf2), nil
}

// newCompiledFromSurfaces assembles a controller from already compiled
// (or cache-decoded) surfaces. The grade/threshold boundaries are
// re-derived from the exact system, which is cheap; only the surface
// sampling itself is worth persisting.
func newCompiledFromSurfaces(sys *System, surf1, surf2 *fuzzy.Surface) *CompiledController {
	return &CompiledController{
		sys:        sys,
		surf1:      surf1,
		surf2:      surf2,
		boundaries: append(gradeBoundaries(sys.flc2.Output()), sys.acceptThreshold),
	}
}

// integerNodes lists 1, 2, ..., ceil(max)-1 (interior integers; the
// universe endpoints are always grid nodes already).
func integerNodes(max float64) []float64 {
	var out []float64
	for x := 1.0; x < max; x++ {
		out = append(out, x)
	}
	return out
}

// gradeBoundaries locates the points of the A/R universe at which the
// highest-membership output term — the decision grade — switches, by
// scanning the variable at fine resolution and bisecting each switch
// interval down to floating-point noise.
func gradeBoundaries(ar *fuzzy.Variable) []float64 {
	const scan = 4096
	min, max := ar.Universe()
	step := (max - min) / scan
	var out []float64
	prev := ar.HighestTerm(min)
	for i := 1; i <= scan; i++ {
		x := min + float64(i)*step
		cur := ar.HighestTerm(x)
		if cur == prev {
			continue
		}
		lo, hi := x-step, x
		for hi-lo > 1e-12 {
			mid := (lo + hi) / 2
			if ar.HighestTerm(mid) == prev {
				lo = mid
			} else {
				hi = mid
			}
		}
		out = append(out, hi)
		prev = cur
	}
	return out
}

var defaultCompiled struct {
	once sync.Once
	ctrl *CompiledController
	err  error
}

// DefaultCompiled returns a process-wide shared CompiledController for
// the default configuration, compiling it on first use. Surface
// compilation costs seconds, so callers that repeatedly need the
// default compiled FACS (experiment replications, benchmarks, tests)
// should share this instance; it is safe for concurrent use.
func DefaultCompiled() (*CompiledController, error) {
	defaultCompiled.once.Do(func() {
		defaultCompiled.ctrl, defaultCompiled.err = NewCompiled(0)
	})
	return defaultCompiled.ctrl, defaultCompiled.err
}

// MustCompiled is like NewCompiled but panics on error; intended for
// the default configuration, which is statically known to be valid.
func MustCompiled(gridSize int, opts ...Option) *CompiledController {
	c, err := NewCompiled(gridSize, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements cac.Controller.
func (c *CompiledController) Name() string { return "facs-compiled" }

// System returns the exact system the surfaces were compiled from.
func (c *CompiledController) System() *System { return c.sys }

// FLC1Surface returns the compiled prediction surface.
func (c *CompiledController) FLC1Surface() *fuzzy.Surface { return c.surf1 }

// FLC2Surface returns the compiled admission surface.
func (c *CompiledController) FLC2Surface() *fuzzy.Surface { return c.surf2 }

// AcceptThreshold returns the crisp decision boundary.
func (c *CompiledController) AcceptThreshold() float64 { return c.sys.AcceptThreshold() }

// Stats reports how many evaluations took the interpolation fast path
// versus the exact guard-band fallback since construction.
func (c *CompiledController) Stats() (fast, exact int64) {
	return c.fast.Load(), c.exact.Load()
}

// Predict runs the compiled FLC1 surface, returning the correction
// value for an observation. The result carries the documented
// interpolation tolerance; use System().Predict for the exact value.
func (c *CompiledController) Predict(obs gps.Observation) (float64, error) {
	return c.surf1.EvaluateVec(obs.SpeedKmh, obs.AngleDeg, obs.DistanceKm)
}

// Evaluate runs the full two-stage inference on the compiled surfaces,
// mirroring System.Evaluate. If the interpolated A/R value lands
// within the propagated error bound of the accept threshold or of a
// grade boundary, the exact engines decide instead, so the returned
// Grade and Accepted always match the exact System.
func (c *CompiledController) Evaluate(obs gps.Observation, requestBU, usedBU int, handoff bool) (Evaluation, error) {
	cv, b1, err := c.surf1.EvaluateVecWithBound(obs.SpeedKmh, obs.AngleDeg, obs.DistanceKm)
	if err != nil {
		return Evaluation{}, err
	}
	ar, _, err := c.surf2.EvaluateVecWithBound(cv, float64(requestBU), float64(usedBU))
	if err != nil {
		return Evaluation{}, err
	}
	// The exact Cv may lie anywhere in [cv-b1, cv+b1], possibly in a
	// neighbouring cell of the admission surface, so bound the slope
	// and the interpolation error over every Cv-axis cell that
	// interval touches before propagating the upstream error.
	cvSpan := [2]float64{cv - b1, cv + b1}
	slope, b2, err := c.surf2.AxisRangeBounds(0, cvSpan[:], cv, float64(requestBU), float64(usedBU))
	if err != nil {
		return Evaluation{}, err
	}
	guard := slope*b1 + b2
	if handoff {
		ar += c.sys.handoffBias
		if ar > 1 {
			ar = 1
		}
	}
	for _, b := range c.boundaries {
		if math.Abs(ar-b) <= guard {
			c.exact.Add(1)
			return c.sys.Evaluate(obs, requestBU, usedBU, handoff)
		}
	}
	c.fast.Add(1)
	return Evaluation{
		Cv:       cv,
		AR:       ar,
		Grade:    gradeFromTerm(c.sys.flc2.Output().HighestTerm(ar)),
		Accepted: ar >= c.sys.acceptThreshold,
	}, nil
}

// DecideBatchInto implements cac.BatchController with the same
// semantics as per-request Decide calls against unchanged station
// state. The batch path amortises the station-occupancy read across
// runs of requests aimed at the same station (the common shape: many
// candidates evaluated against one cell), on top of the per-query
// surface lookups that already dominate the cost. Surface lookups
// allocate nothing, so the fast path (no guard-band fallback) is
// allocation-free.
//
//facs:hotpath
func (c *CompiledController) DecideBatchInto(reqs []cac.Request, out []cac.Decision) error {
	var station *cell.BaseStation
	used, free := 0, 0
	for i := range reqs {
		req := &reqs[i]
		if err := req.Validate(); err != nil {
			return err
		}
		// Decide must not mutate stations, so occupancy is stable for
		// the whole batch and one read serves every consecutive request
		// on the same station.
		if req.Station != station {
			station = req.Station
			used = station.Used()
			free = station.Free()
		}
		if req.Call.BU > free {
			out[i] = cac.Reject
			continue
		}
		ev, err := c.Evaluate(req.Obs, req.Call.BU, used, req.Handoff)
		if err != nil {
			return err
		}
		if ev.Accepted {
			out[i] = cac.Accept
		} else {
			out[i] = cac.Reject
		}
	}
	return nil
}

// Decide implements cac.Controller with the same semantics as
// System.Decide, on the compiled surfaces.
func (c *CompiledController) Decide(req cac.Request) (cac.Decision, error) {
	if err := req.Validate(); err != nil {
		return cac.Reject, err
	}
	if !req.Station.Fits(req.Call.BU) {
		return cac.Reject, nil
	}
	ev, err := c.Evaluate(req.Obs, req.Call.BU, req.Station.Used(), req.Handoff)
	if err != nil {
		return cac.Reject, err
	}
	if ev.Accepted {
		return cac.Accept, nil
	}
	return cac.Reject, nil
}
