package shard

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/serve"
)

// View is the slice of the network one shard owns: the stations whose
// admission, release and state-update traffic this shard's decision
// loop serializes. It is handed to Config.NewController so factories
// can build per-shard controller instances (or return one shared,
// concurrency-safe instance). Under elastic rebalancing the owned set
// changes at epoch boundaries; Engine.View always reports the current
// epoch's slice, while the view a factory received describes epoch 0
// (factories that need per-station state should size it off
// View.Network, which is epoch-invariant).
type View struct {
	index    int
	network  *cell.Network
	stations []*cell.BaseStation
}

// Index returns the shard number in [0, Engine.Shards()).
func (v View) Index() int { return v.index }

// Network returns the full deployment (shared by all shards); shard
// controllers may read its immutable geometry but must treat stations
// outside Stations() as foreign.
func (v View) Network() *cell.Network { return v.network }

// Stations returns the stations owned by this shard, in the network's
// deterministic (Q, R) order.
func (v View) Stations() []*cell.BaseStation { return v.stations }

// NumCells returns the number of owned stations.
func (v View) NumCells() int { return len(v.stations) }

// SingleView returns the view a 1-shard engine hands its controller
// factory: the whole network. Sequential replay oracles and front ends
// use it to build exactly the controller a 1-shard engine would.
func SingleView(net *cell.Network) View {
	return View{index: 0, network: net, stations: net.Stations()}
}

// Partition selects the deterministic initial station-to-shard
// assignment over the network's (Q, R) station order.
type Partition int

const (
	// PartitionRoundRobin assigns station i to shard i mod N — the
	// historical default. Interleaving neighbouring cells across shards
	// balances spatially concentrated load, at the price of every shard
	// being interested in most of the map (interest-scoped fan-out
	// degenerates toward all-to-all).
	PartitionRoundRobin Partition = iota
	// PartitionBlocks assigns contiguous ranges of the station order
	// (station i to shard i*N/cells): each shard owns a spatially
	// coherent band of the deployment, which is what makes
	// interest-scoped ghost fan-out sparse — a shard's cluster
	// neighbourhood stays mostly within its own band.
	PartitionBlocks
)

// Config parameterises an Engine.
type Config struct {
	// Network is the deployment whose cells are partitioned. Required.
	Network *cell.Network

	// Shards is the number of decision loops. Zero selects
	// min(GOMAXPROCS, cells); any value is capped at the cell count
	// (an empty shard could never receive traffic).
	Shards int

	// NewController builds the admission controller for one shard.
	// Stateful controllers (e.g. the SCC ledger) must return a fresh
	// instance per call — each instance is confined to its shard's
	// decision loop; concurrency-safe cell-local controllers (FACS
	// exact or compiled, the classical baselines) may return one shared
	// instance. Required.
	NewController func(v View) (cac.Controller, error)

	// MaxBatch is the engine's chunk size: SubmitWave splits a wave at
	// MaxBatch boundaries in global request order BEFORE routing, with
	// a cross-shard barrier between chunks, so chunk boundaries — and
	// therefore outcomes — are identical for every shard count
	// (default serve.DefaultMaxBatch). Per-shard services inherit it as
	// their micro-batch cap.
	MaxBatch int

	// MaxDelay bounds how long a per-shard batcher waits for singles to
	// coalesce (default serve.DefaultMaxDelay); it cannot change wave
	// outcomes, only single-submit latency.
	MaxDelay time.Duration

	// Queue is the per-shard intake capacity (default serve's 4 x
	// MaxBatch).
	Queue int

	// Commit makes each shard the owner of its stations' allocation
	// state, exactly like serve.Config.Commit. Handoffs require it.
	Commit bool

	// Partition selects the initial ownership layout (default
	// PartitionRoundRobin, the historical assignment).
	Partition Partition

	// RebalanceEveryTicks enables elastic shard rebalancing: every N
	// Tick barriers the engine snapshots its per-cell load counters
	// (decisions routed since the last epoch plus current occupancy),
	// runs the deterministic PlanRebalance planner, migrates the
	// planned cells — controller state moves between shards through
	// the serialized Do-op seam, inside the barrier, while the station
	// object and its call slots stay put, so every call handle held
	// across the epoch stays valid — and publishes a new ownership
	// epoch. 0 (the default) keeps the static partition. Rebalancing requires every controller
	// to be cac.CellLocal or a cac.CellMigrator; exchanging controllers
	// must additionally implement cac.ExchangeResetter so their ghost
	// state can be re-seeded under the new ownership.
	RebalanceEveryTicks int

	// Rebalance bounds the planner (moves per epoch, imbalance
	// tolerance); see PlannerConfig.
	Rebalance PlannerConfig

	// DisableInterestScope keeps the all-to-all ghost fan-out even when
	// every exchanger declares an interest radius (cac.InterestScoped).
	// Scoping never changes outcomes — it drops only rows the receiver
	// provably never reads — so this is a measurement escape hatch.
	DisableInterestScope bool
}

// Handoff describes one call transfer between cells: release the call
// at From, then ask the admission controller owning To whether the
// target cell accepts it (with handoff priority). From and To may live
// on the same shard or different ones; the engine serializes either
// case identically.
type Handoff struct {
	// CallID identifies the carried call at From for the controllers'
	// observer seam (cac.Observer.OnRelease and the target request).
	CallID int
	// Handle names the call at From (serve.Response.Handle of its
	// commit, or of the handoff that brought it there). A handle that
	// From does not carry, or that names a call other than CallID,
	// fails the handoff with nothing released.
	Handle cell.Handle
	// From is the station currently carrying the call.
	From *cell.BaseStation
	// To is the station the call is moving into.
	To *cell.BaseStation
	// Est is the user's latest kinematic estimate, consumed by the
	// target-side admission decision.
	Est gps.Estimate
	// Now is the simulation time of the handoff.
	Now float64
}

// HandoffResult is the outcome of one handoff.
type HandoffResult struct {
	// Response is the target shard's admission outcome. The call
	// survives the handoff only when Response.Committed is set, and
	// Response.Handle then names it at the target; an
	// accepted-but-uncommitted or rejected handoff is a drop (the
	// source side has already released — the mobile left that cell's
	// coverage regardless).
	Response serve.Response
	// CrossShard reports that source and target live on different
	// shards.
	CrossShard bool
	// Err carries a protocol failure: unknown call at the source (a
	// stale or foreign Handle, or one naming a call other than CallID;
	// it wraps cell.ErrUnknownCall), unroutable station, or a closed
	// engine. The target decision never ran when Err is non-nil and the
	// release did not happen unless Err wraps the target shard's
	// submission failure.
	Err error
}

// Dropped reports that the call did not survive the handoff.
func (r HandoffResult) Dropped() bool { return r.Err != nil || !r.Response.Committed }

// handoffItem is one queued handoff awaiting the protocol worker.
type handoffItem struct {
	h     Handoff
	reply chan HandoffResult
}

// waveRoute is one shard's persistent wave-scatter state: the chunk
// positions routed to the shard, the gathered requests, and the
// response buffer its service fills. One chunk holds at most MaxBatch
// requests, so the buffers are sized once at construction and never
// grow in steady state.
type waveRoute struct {
	idx  []int
	reqs []cac.Request
	out  []serve.Response
}

// bitset is a dense cell-index set (interest sets).
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) count() (n int) {
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ownership is one immutable epoch of the cell-to-shard assignment.
// The engine swaps a fresh snapshot atomically at each rebalance, so
// routers (which may run concurrently with the barrier in free-running
// mode) always read a consistent map without locks.
type ownership struct {
	// epoch counts applied rebalances; 0 is the initial partition.
	epoch uint64
	// owner maps dense station index (network (Q, R) order) to shard.
	owner []int32
	// views are the per-shard owned-station slices for this epoch.
	views []View
	// interest[s] is the set of dense cell indices shard s's decisions
	// may read (its owned cells dilated by the exchangers' interest
	// radius); nil when the exchange is unscoped (all-to-all).
	interest []bitset
}

// Stats aggregates engine counters with the per-shard service
// snapshots.
type Stats struct {
	// Shards is the number of decision loops.
	Shards int
	// CellLocal reports that every shard controller declared
	// cac.CellLocal, i.e. outcomes are provably shard-count-invariant.
	CellLocal bool
	// Total is the field-wise aggregation of PerShard: counters sum,
	// MaxBatch/MaxLatency take the maximum, AvgLatency is weighted by
	// decided requests and the latency histogram (and so the
	// percentiles) merges (serve.Stats.Merge).
	Total serve.Stats
	// PerShard holds one service snapshot per shard.
	PerShard []serve.Stats
	// Waves counts engine-level SubmitWave calls.
	Waves int64
	// Handoffs counts completed release-and-readmit protocols;
	// CrossShard the subset spanning two shards; Drops the handoffs
	// whose target did not commit; Errs the protocol failures (unknown
	// call, unroutable station).
	Handoffs, CrossShard, Drops, Errs int64
	// Exchanges counts tick-barrier ghost-demand exchange rounds;
	// GhostRows the (cell, interval) demand rows actually applied on
	// sibling shards across them. GhostRowsAllToAll is what an
	// unscoped fan-out would have applied (every exported row on every
	// other shard): with interest scoping active GhostRows <=
	// GhostRowsAllToAll, without it they are equal. All stay zero for
	// cell-local controllers.
	Exchanges, GhostRows, GhostRowsAllToAll int64
	// InterestScoped reports that exchange rows route by interest sets
	// instead of all-to-all.
	InterestScoped bool
	// Epoch is the current ownership version (applied rebalances since
	// construction); Rebalances counts epochs that actually migrated at
	// least one cell, Migrations the cells moved, MigratedCalls the
	// carried calls that moved with them.
	Epoch                                 uint64
	Rebalances, Migrations, MigratedCalls int64
}

// String renders a one-line operator summary.
func (s Stats) String() string {
	out := fmt.Sprintf("%d shards: %s; handoffs %d (%d cross-shard, %d dropped, %d errors)",
		s.Shards, s.Total, s.Handoffs, s.CrossShard, s.Drops, s.Errs)
	if s.Exchanges > 0 {
		out += fmt.Sprintf("; ghost exchanges %d (%d rows", s.Exchanges, s.GhostRows)
		if s.InterestScoped {
			out += fmt.Sprintf(" of %d all-to-all", s.GhostRowsAllToAll)
		}
		out += ")"
	}
	if s.Rebalances > 0 {
		out += fmt.Sprintf("; rebalances %d (epoch %d, %d cells, %d calls moved)",
			s.Rebalances, s.Epoch, s.Migrations, s.MigratedCalls)
	}
	return out
}

// Engine is the horizontally sharded admission engine: the network's
// cells are partitioned across N shards, each running its own
// controller behind its own serve.Service decision loop, with a
// deterministic router mapping every station to its owner shard.
//
// Determinism contract: a station's traffic is serialized by exactly
// one shard in submission order, and SubmitWave chunks waves at
// MaxBatch boundaries in global request order before routing, with a
// barrier between chunks. For controllers declaring cac.CellLocal
// (whose decisions read only the request's own station), every
// per-request outcome — decision, committed flag, commit error — is
// therefore byte-identical for every shard count, including the
// 1-shard engine and an inline sequential replay. Controllers that
// track cross-cell state (the SCC family) implement
// cac.DemandExchanger instead: the engine restores their global demand
// visibility through the ghost-demand exchange hosted by the Tick
// barrier, making tick-aligned runs byte-identical to a sequential
// single-ledger replay and bounding free-running divergence to
// intra-epoch admissions; see the package documentation.
//
// Elastic ownership: the cell-to-shard map is an immutable epoch
// snapshot behind an atomic pointer. With RebalanceEveryTicks set, the
// Tick barrier periodically plans (PlanRebalance, a pure function of
// the per-cell load counters) and applies cell migrations — a
// station's mutation passes from the old owner's loop to the new
// owner's (the station and its call handles never move), controller
// state moves through cac.CellMigrator, ghost state re-seeds through
// cac.ExchangeResetter — then publishes the next epoch. Every step
// runs inside the barrier on serialized Do ops, so the replay contracts
// above survive rebalancing unchanged: for cell-local controllers a
// migration changes only which loop serializes a station's (unchanged)
// request stream.
//
// Handoffs travel a dedicated FIFO queue processed by one protocol
// worker: release on the source shard (a serialized barrier op), then
// admit on the target shard, so source-release-before-target-admit
// ordering holds for every shard count and interleaving.
type Engine struct {
	cfg       Config
	stations  []*cell.BaseStation
	hexes     []geo.Hex
	cellIdx   map[geo.Hex]int32
	services  []*serve.Service
	cellLocal bool
	// own is the current ownership epoch, swapped whole at rebalances.
	own atomic.Pointer[ownership]
	// exchangers holds each shard's controller as a cac.DemandExchanger
	// when every shard got a distinct exchanger instance (and the
	// exchange was not disabled); nil otherwise. Index-aligned with
	// services.
	exchangers []cac.DemandExchanger
	// interestRadius is the hex-ring dilation of a shard's owned cells
	// that covers every cell its decisions may read; -1 keeps the
	// all-to-all fan-out.
	interestRadius int
	// rebalanceErr is nil when the controller set supports rebalancing
	// (every controller CellLocal or CellMigrator, exchangers also
	// ExchangeResetter); otherwise it names the first offender.
	rebalanceErr error

	// cellLoad counts decisions routed per dense cell index since the
	// last epoch (accessed atomically: wave scatter, singles and the
	// handoff worker all count concurrently).
	cellLoad []int64
	loadBuf  []float64

	// waveMu serializes SubmitWave/SubmitWaveTo so the per-shard routing
	// and response-scatter buffers below are reused across waves instead
	// of rebuilt per call. Waves from concurrent callers queue on the
	// mutex — their relative order was already scheduling-dependent, so
	// serializing them changes no determinism contract.
	waveMu     sync.Mutex
	waveRoutes []waveRoute
	waveErrs   []error

	// Migration scratch, touched only inside rebalance (barrier-
	// serialized with everything else by the Tick caller's contract).
	migRows []cac.MigratedCall
	// scoped[s] is shard s's receive buffer for interest-filtered
	// exchange rows (each shard's apply op writes only its own slot).
	scoped [][]cac.DemandRow

	mu     sync.RWMutex // guards closed against in-flight handoff sends
	closed bool

	handoffs    chan handoffItem
	handoffDone chan struct{}

	waves         atomic.Int64
	handoffCount  atomic.Int64
	crossShard    atomic.Int64
	drops         atomic.Int64
	handoffErrs   atomic.Int64
	exchanges     atomic.Int64
	ghostRows     atomic.Int64
	ghostRowsAll  atomic.Int64
	ticks         atomic.Int64
	rebalances    atomic.Int64
	migrations    atomic.Int64
	migratedCalls atomic.Int64
}

// New validates the configuration, partitions the network, starts one
// decision loop per shard plus the handoff worker, and returns the live
// engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("shard: config needs a network")
	}
	if cfg.NewController == nil {
		return nil, fmt.Errorf("shard: config needs a controller factory")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: Shards must be >= 0, got %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if n := cfg.Network.NumCells(); cfg.Shards > n {
		cfg.Shards = n
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = serve.DefaultMaxBatch
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("shard: MaxBatch must be >= 1, got %d", cfg.MaxBatch)
	}
	if cfg.Partition != PartitionRoundRobin && cfg.Partition != PartitionBlocks {
		return nil, fmt.Errorf("shard: unknown partition strategy %d", cfg.Partition)
	}
	if cfg.RebalanceEveryTicks < 0 {
		return nil, fmt.Errorf("shard: RebalanceEveryTicks must be >= 0, got %d", cfg.RebalanceEveryTicks)
	}

	stations := cfg.Network.Stations()
	e := &Engine{
		cfg:            cfg,
		stations:       stations,
		hexes:          make([]geo.Hex, len(stations)),
		cellIdx:        make(map[geo.Hex]int32, len(stations)),
		services:       make([]*serve.Service, 0, cfg.Shards),
		interestRadius: -1,
		cellLoad:       make([]int64, len(stations)),
		loadBuf:        make([]float64, len(stations)),
		handoffs:       make(chan handoffItem, cfg.Shards),
		handoffDone:    make(chan struct{}),
		cellLocal:      true,
	}
	for i, bs := range stations {
		e.hexes[i] = bs.Hex()
		e.cellIdx[bs.Hex()] = int32(i)
	}
	// Epoch 0: the deterministic initial partition over the network's
	// (Q, R) station order.
	owner := make([]int32, len(stations))
	for i := range stations {
		switch cfg.Partition {
		case PartitionBlocks:
			owner[i] = int32(i * cfg.Shards / len(stations))
		default:
			owner[i] = int32(i % cfg.Shards)
		}
	}
	initial := e.buildOwnership(owner, 0)
	e.own.Store(initial)

	ctrls := make([]cac.Controller, 0, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		ctrl, err := cfg.NewController(initial.views[i])
		if err != nil {
			e.closeServices()
			return nil, fmt.Errorf("shard: building controller for shard %d: %w", i, err)
		}
		if _, ok := ctrl.(cac.CellLocal); !ok {
			e.cellLocal = false
		}
		ctrls = append(ctrls, ctrl)
		svc, err := serve.New(serve.Config{
			Controller: ctrl,
			MaxBatch:   cfg.MaxBatch,
			MaxDelay:   cfg.MaxDelay,
			Queue:      cfg.Queue,
			Commit:     cfg.Commit,
		})
		if err != nil {
			e.closeServices()
			return nil, fmt.Errorf("shard: starting shard %d: %w", i, err)
		}
		e.services = append(e.services, svc)
	}
	e.exchangers = demandExchangers(ctrls)
	e.rebalanceErr = rebalanceSupport(ctrls, e.exchangers)
	if cfg.RebalanceEveryTicks > 0 && e.rebalanceErr != nil {
		e.closeServices()
		return nil, e.rebalanceErr
	}
	if e.exchangers != nil && !cfg.DisableInterestScope {
		e.interestRadius = interestRadius(e.exchangers)
	}
	if e.interestRadius >= 0 {
		// Rebuild epoch 0 with interest sets (the radius was unknown
		// before the controllers existed).
		e.own.Store(e.buildOwnership(owner, 0))
	}
	e.scoped = make([][]cac.DemandRow, len(e.services))
	e.waveRoutes = make([]waveRoute, len(e.services))
	for s := range e.waveRoutes {
		e.waveRoutes[s] = waveRoute{
			idx:  make([]int, 0, cfg.MaxBatch),
			reqs: make([]cac.Request, 0, cfg.MaxBatch),
			out:  make([]serve.Response, cfg.MaxBatch),
		}
	}
	e.waveErrs = make([]error, len(e.services))
	go e.handoffLoop()
	return e, nil
}

// demandExchangers returns the controllers as exchange participants if
// and only if every one is a cac.DemandExchanger and all are distinct
// instances — a shared instance would ingest its own exports as ghost
// demand, double-counting every call. Factories for exchanging
// controllers must therefore build one instance per shard (which the
// decision-loop confinement contract already requires for any stateful
// controller).
func demandExchangers(ctrls []cac.Controller) []cac.DemandExchanger {
	out := make([]cac.DemandExchanger, len(ctrls))
	seen := make(map[cac.Controller]bool, len(ctrls))
	for i, ctrl := range ctrls {
		ex, ok := ctrl.(cac.DemandExchanger)
		if !ok || seen[ctrl] {
			return nil
		}
		seen[ctrl] = true
		out[i] = ex
	}
	return out
}

// rebalanceSupport reports whether the controller set can be
// rebalanced: every controller must be cac.CellLocal (nothing to move)
// or a cac.CellMigrator (state moves through the seam), and active
// exchangers must be cac.ExchangeResetters (ghost state re-seeds after
// the epoch flips).
func rebalanceSupport(ctrls []cac.Controller, exchangers []cac.DemandExchanger) error {
	for i, ctrl := range ctrls {
		_, local := ctrl.(cac.CellLocal)
		_, mig := ctrl.(cac.CellMigrator)
		if !local && !mig {
			return fmt.Errorf("shard: rebalancing needs cell-local or migratable controllers; shard %d's %q is neither", i, ctrl.Name())
		}
	}
	for i, ex := range exchangers {
		if _, ok := ex.(cac.ExchangeResetter); !ok {
			return fmt.Errorf("shard: rebalancing an exchanging engine needs resettable exchangers; shard %d's %q is not", i, ex.Name())
		}
	}
	return nil
}

// interestRadius returns the exchange's read radius: the maximum over
// every exchanger's declared cac.InterestScoped radius, or -1
// (all-to-all) when any exchanger lacks the interface or declares no
// bound.
func interestRadius(exchangers []cac.DemandExchanger) int {
	radius := 0
	for _, ex := range exchangers {
		is, ok := ex.(cac.InterestScoped)
		if !ok {
			return -1
		}
		r := is.InterestRadiusCells()
		if r < 0 {
			return -1
		}
		if r > radius {
			radius = r
		}
	}
	return radius
}

// buildOwnership materializes one epoch: per-shard views in station
// order plus (when the exchange is interest-scoped) each shard's
// interest set — its owned cells dilated by interestRadius hex rings.
func (e *Engine) buildOwnership(owner []int32, epoch uint64) *ownership {
	n := e.cfg.Shards
	o := &ownership{epoch: epoch, owner: owner, views: make([]View, n)}
	for s := 0; s < n; s++ {
		o.views[s] = View{index: s, network: e.cfg.Network}
	}
	for i, s := range owner {
		o.views[s].stations = append(o.views[s].stations, e.stations[i])
	}
	if e.interestRadius >= 0 {
		o.interest = make([]bitset, n)
		for s := range o.interest {
			o.interest[s] = newBitset(len(e.stations))
		}
		for j, s := range owner {
			hj := e.hexes[j]
			set := o.interest[s]
			for i, hi := range e.hexes {
				if hj.DistanceTo(hi) <= e.interestRadius {
					set.set(i)
				}
			}
		}
	}
	return o
}

// closeServices tears down the services started so far (construction
// failure path).
func (e *Engine) closeServices() {
	for _, svc := range e.services {
		_ = svc.Close()
	}
}

// Shards returns the number of decision loops (after capping at the
// cell count).
func (e *Engine) Shards() int { return len(e.services) }

// CellLocal reports that every shard controller declared
// cac.CellLocal, making outcomes shard-count-invariant.
func (e *Engine) CellLocal() bool { return e.cellLocal }

// Epoch returns the current ownership version: 0 until the first
// applied rebalance, incremented once per applied migration plan.
func (e *Engine) Epoch() uint64 { return e.own.Load().epoch }

// InterestScoped reports that the ghost exchange routes rows by
// interest sets instead of all-to-all.
func (e *Engine) InterestScoped() bool { return e.interestRadius >= 0 }

// ShardOf returns the shard owning cell h at the current epoch, or
// false for a hex outside the deployment.
func (e *Engine) ShardOf(h geo.Hex) (int, bool) {
	ci, ok := e.cellIdx[h]
	if !ok {
		return 0, false
	}
	return int(e.own.Load().owner[ci]), true
}

// View returns shard s's slice of the network at the current epoch.
func (e *Engine) View(s int) View { return e.own.Load().views[s] }

// route resolves the owner shard of a request's station and counts the
// decision against the cell's load window.
func (e *Engine) route(req cac.Request) (int, error) {
	if req.Station == nil {
		return 0, fmt.Errorf("shard: request for call %d has no station", req.Call.ID)
	}
	ci, ok := e.cellIdx[req.Station.Hex()]
	if !ok {
		return 0, fmt.Errorf("shard: station %v is outside the engine's network", req.Station.Hex())
	}
	atomic.AddInt64(&e.cellLoad[ci], 1)
	return int(e.own.Load().owner[ci]), nil
}

// Submit routes one request to its station's shard and blocks until
// the decision. Safe for any number of concurrent callers.
func (e *Engine) Submit(req cac.Request) serve.Response {
	return <-e.SubmitAsync(req)
}

// SubmitAsync routes one request to its station's shard and returns a
// buffered channel carrying exactly one response. An unroutable
// request is answered immediately with a rejection carrying the error.
func (e *Engine) SubmitAsync(req cac.Request) <-chan serve.Response {
	s, err := e.route(req)
	if err != nil {
		ch := make(chan serve.Response, 1)
		ch <- serve.Response{Decision: cac.Reject, Err: err}
		return ch
	}
	return e.services[s].SubmitAsync(req)
}

// SubmitWave decides a caller-defined batch, returning responses in
// request order. The wave is split at MaxBatch boundaries in global
// request order first; each chunk's requests are then routed to their
// owner shards and decided concurrently, with a barrier before the
// next chunk. Chunk boundaries — and, for cell-local controllers, all
// outcomes — are therefore independent of the shard count: the 1-shard
// engine realises exactly serve.SubmitAll's deterministic wave
// semantics.
func (e *Engine) SubmitWave(reqs []cac.Request) ([]serve.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]serve.Response, len(reqs))
	if err := e.SubmitWaveTo(reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitWaveTo is SubmitWave into a caller-provided response buffer:
// out[i] receives the response for reqs[i]. The routing and scatter
// state lives on the engine and is reused across waves, so a steady
// caller that also reuses out allocates nothing per wave. out must
// hold at least len(reqs) slots.
//
//facs:hotpath
func (e *Engine) SubmitWaveTo(reqs []cac.Request, out []serve.Response) error {
	if len(reqs) == 0 {
		return nil
	}
	if len(out) < len(reqs) {
		return fmt.Errorf("shard: response buffer too short: %d requests, %d slots", len(reqs), len(out)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	e.waveMu.Lock()
	defer e.waveMu.Unlock()
	routes, errs := e.waveRoutes, e.waveErrs
	for lo := 0; lo < len(reqs); lo += e.cfg.MaxBatch {
		hi := min(lo+e.cfg.MaxBatch, len(reqs))
		own := e.own.Load()
		for s := range routes {
			routes[s].idx = routes[s].idx[:0]
			routes[s].reqs = routes[s].reqs[:0]
			errs[s] = nil
		}
		for i := lo; i < hi; i++ {
			if reqs[i].Station == nil {
				return fmt.Errorf("shard: request for call %d has no station", reqs[i].Call.ID) //facs:alloc reject/error path; formats nothing on the steady-state wave
			}
			ci, ok := e.cellIdx[reqs[i].Station.Hex()]
			if !ok {
				return fmt.Errorf("shard: station %v is outside the engine's network", reqs[i].Station.Hex()) //facs:alloc reject/error path; formats nothing on the steady-state wave
			}
			atomic.AddInt64(&e.cellLoad[ci], 1)
			s := int(own.owner[ci])
			routes[s].idx = append(routes[s].idx, i)
			routes[s].reqs = append(routes[s].reqs, reqs[i])
		}
		var wg sync.WaitGroup
		for s := range routes {
			if len(routes[s].reqs) == 0 {
				continue
			}
			wg.Add(1)
			go func(s int) { //facs:alloc one fan-out goroutine per owning shard per batch, not per request
				defer wg.Done()
				n := len(routes[s].reqs)
				if err := e.services[s].SubmitAllInto(routes[s].reqs, routes[s].out[:n]); err != nil {
					errs[s] = err
					return
				}
				for j := 0; j < n; j++ {
					out[routes[s].idx[j]] = routes[s].out[j]
				}
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	e.waves.Add(1)
	return nil
}

// Tick fans one cac.Ticker.OnTick delivery out to every shard and
// blocks until all have applied it — a cross-shard barrier: every
// request enqueued before Tick is decided before it fires, and no
// request submitted after Tick returns can overtake it on any shard.
//
// For demand-exchanging controllers (see Exchanging) the barrier also
// hosts the ghost-demand exchange: once every shard has applied the
// tick (and, for the SCC ledger, re-aggregated its matrix), each
// shard's demand delta is collected and fanned back out — to every
// sibling, or only to interested ones when the exchange is scoped —
// all before Tick returns. The exchange cadence is therefore exactly
// the tick cadence — deterministic and race-free by construction,
// since both phases run as serialized ops on each shard's own decision
// loop.
//
// With RebalanceEveryTicks set, every Nth barrier additionally runs
// one rebalance epoch between the flush and the exchange: plan,
// migrate, publish the next ownership snapshot, re-seed exchange
// state. The exchange that follows carries absolute demand matrices
// (see cac.ExchangeResetter), so every ghost is consistent under the
// new ownership before any post-barrier decision runs.
//
// Callers wanting a globally consistent exchange (and any caller using
// rebalancing) must quiesce submissions across Tick, exactly as the
// closed-loop drivers do.
func (e *Engine) Tick(now float64) error {
	for _, svc := range e.services {
		if err := svc.Tick(now); err != nil {
			return err
		}
	}
	if err := e.Flush(); err != nil {
		return err
	}
	if n := e.cfg.RebalanceEveryTicks; n > 0 {
		if t := e.ticks.Add(1); t%int64(n) == 0 {
			if err := e.rebalance(); err != nil {
				return err
			}
		}
	}
	return e.exchangeDemand()
}

// Exchanging reports that the engine runs the ghost-demand exchange at
// tick barriers: every shard controller is a distinct
// cac.DemandExchanger instance.
func (e *Engine) Exchanging() bool { return e.exchangers != nil }

// ForceRebalance runs one rebalance epoch immediately: flush, plan,
// migrate, publish, then a full exchange round. Like Tick it assumes
// quiesced submissions. It returns an error when the controller set
// does not support rebalancing (see Config.RebalanceEveryTicks).
func (e *Engine) ForceRebalance() error {
	if err := e.Flush(); err != nil {
		return err
	}
	if err := e.rebalance(); err != nil {
		return err
	}
	return e.exchangeDemand()
}

// rebalance runs one epoch inside the barrier: snapshot the load
// counters, plan, migrate each planned cell through the Do-op seam
// (source loop first, then target loop), publish the next ownership
// snapshot, and re-seed exchanger state. The caller runs (or is) the
// tick barrier, so no wave is in flight and every Do op serializes
// cleanly behind drained queues.
func (e *Engine) rebalance() error {
	if e.rebalanceErr != nil {
		return e.rebalanceErr
	}
	cur := e.own.Load()
	load := e.loadBuf
	for i := range load {
		// Decisions routed this epoch plus present occupancy: the former
		// finds hot cells, the latter breaks ties toward cells whose
		// calls would actually move. Both inputs are identical across
		// shard counts, so plans replay identically too.
		load[i] = float64(atomic.LoadInt64(&e.cellLoad[i])) + float64(e.stations[i].Used())
	}
	plan := PlanRebalance(load, cur.owner, len(e.services), e.cfg.Rebalance)
	for i := range e.cellLoad {
		atomic.StoreInt64(&e.cellLoad[i], 0)
	}
	if len(plan) == 0 {
		return nil
	}
	for _, m := range plan {
		if err := e.migrate(m); err != nil {
			return err
		}
	}
	next := make([]int32, len(cur.owner))
	copy(next, cur.owner)
	for _, m := range plan {
		next[m.Cell] = int32(m.To)
	}
	e.own.Store(e.buildOwnership(next, cur.epoch+1))
	if e.exchangers != nil {
		if err := e.eachShard(func(s int) error {
			return e.services[s].Do(func(ctrl cac.Controller) {
				if r, ok := ctrl.(cac.ExchangeResetter); ok {
					r.ResetExchange()
				}
			})
		}); err != nil {
			return err
		}
	}
	e.rebalances.Add(1)
	e.migrations.Add(int64(len(plan)))
	return nil
}

// migrate moves one cell: extract its controller state on the source
// shard's loop, then insert it on the target shard's loop. Two
// serialized ops — at every instant the cell's state lives on exactly
// one loop. The station itself does not move: the source op is the
// last write its old owner makes to it and the target op orders every
// later write behind that one, so its call slots (and the handles that
// name them) carry across the epoch untouched.
func (e *Engine) migrate(m Migration) error {
	bs := e.stations[m.Cell]
	h := e.hexes[m.Cell]
	var calls int
	if err := e.services[m.From].Do(func(ctrl cac.Controller) {
		if e.cfg.Commit {
			calls = bs.NumCalls()
		}
		if mig, ok := ctrl.(cac.CellMigrator); ok {
			e.migRows = mig.MigrateOut(h, e.migRows[:0])
		}
	}); err != nil {
		return err
	}
	if err := e.services[m.To].Do(func(ctrl cac.Controller) {
		if mig, ok := ctrl.(cac.CellMigrator); ok {
			mig.MigrateIn(e.migRows)
		}
	}); err != nil {
		return err
	}
	e.migratedCalls.Add(int64(calls))
	e.migRows = e.migRows[:0]
	return nil
}

// exchangeDemand runs one exchange round inside the tick barrier:
// phase 1 collects every shard's demand delta (a serialized op on each
// shard's loop), phase 2 applies the union on every shard — every
// delta except a shard's own, in ascending source-shard order,
// filtered down to the receiver's interest set when the exchange is
// scoped. Both phases complete before the caller's Tick returns.
func (e *Engine) exchangeDemand() error {
	if e.exchangers == nil {
		return nil
	}
	own := e.own.Load()
	deltas := make([]cac.DemandDelta, len(e.services))
	collect := func(s int) error {
		return e.services[s].Do(func(cac.Controller) { deltas[s] = e.exchangers[s].ExportDemand() })
	}
	if err := e.eachShard(collect); err != nil {
		return err
	}
	var rows int64
	for _, d := range deltas {
		rows += int64(len(d.Rows))
	}
	apply := func(s int) error {
		return e.services[s].Do(func(cac.Controller) {
			var fanned int64
			for src := range deltas {
				if src == s || len(deltas[src].Rows) == 0 {
					continue
				}
				d := deltas[src]
				if own.interest != nil {
					// Keep only rows inside this shard's read set; the
					// generation still advances on empty filtered deltas so
					// replay guards stay aligned with the exporter.
					buf := e.scoped[s][:0]
					set := own.interest[s]
					for _, r := range d.Rows {
						if ci, ok := e.cellIdx[r.Cell]; ok && set.has(int(ci)) {
							buf = append(buf, r)
						}
					}
					e.scoped[s] = buf
					d = cac.DemandDelta{Gen: d.Gen, Rows: buf}
				}
				fanned += int64(len(d.Rows))
				e.exchangers[s].ApplyGhost(src, d)
			}
			e.ghostRows.Add(fanned)
		})
	}
	if err := e.eachShard(apply); err != nil {
		return err
	}
	e.exchanges.Add(1)
	e.ghostRowsAll.Add(rows * int64(len(e.services)-1))
	return nil
}

// eachShard runs fn(s) for every shard concurrently and returns the
// first error.
func (e *Engine) eachShard(fn func(s int) error) error {
	errs := make([]error, len(e.services))
	var wg sync.WaitGroup
	for s := range e.services {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush blocks until everything enqueued on every shard has been
// processed.
func (e *Engine) Flush() error {
	return e.eachShard(func(s int) error { return e.services[s].Flush() })
}

// Do runs fn inside shard s's decision loop, serialized after
// everything already enqueued there, and blocks until it returns. A
// globally consistent multi-shard view additionally requires the
// caller to quiesce submissions (as the closed-loop drivers do between
// waves).
func (e *Engine) Do(s int, fn func(ctrl cac.Controller)) error {
	return e.services[s].Do(fn)
}

// Release retires the carried call h names on its station's shard,
// ordered after everything already enqueued there (see
// serve.Service.Release).
func (e *Engine) Release(callID int, h cell.Handle, station *cell.BaseStation, now float64) error {
	ci, ok := e.cellIdx[station.Hex()]
	if !ok {
		return fmt.Errorf("shard: station %v is outside the engine's network", station.Hex())
	}
	return e.services[e.own.Load().owner[ci]].Release(callID, h, station, now)
}

// UpdateState delivers a fresh kinematic estimate for a carried call to
// its station's shard (see serve.Service.UpdateState).
func (e *Engine) UpdateState(callID int, est gps.Estimate, station *cell.BaseStation) error {
	ci, ok := e.cellIdx[station.Hex()]
	if !ok {
		return fmt.Errorf("shard: station %v is outside the engine's network", station.Hex())
	}
	return e.services[e.own.Load().owner[ci]].UpdateState(callID, est, station)
}

// HandoffAsync enqueues one handoff on the engine's FIFO protocol
// queue and returns a buffered channel carrying exactly one result.
// The single protocol worker processes handoffs strictly in queue
// order, each to completion: source release (barrier on the source
// shard), then target admission — so two handoffs never interleave and
// source-release-before-target-admit holds regardless of shard count.
func (e *Engine) HandoffAsync(h Handoff) <-chan HandoffResult {
	reply := make(chan HandoffResult, 1)
	if !e.cfg.Commit {
		e.handoffErrs.Add(1)
		reply <- HandoffResult{Err: fmt.Errorf("shard: handoffs require Commit mode (the engine must own station state)")}
		return reply
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.handoffErrs.Add(1)
		reply <- HandoffResult{Err: serve.ErrClosed}
		return reply
	}
	e.handoffs <- handoffItem{h: h, reply: reply}
	return reply
}

// HandoffCall runs one handoff to completion and returns its result.
func (e *Engine) HandoffCall(h Handoff) HandoffResult {
	return <-e.HandoffAsync(h)
}

// handoffLoop is the protocol worker: one handoff at a time, in FIFO
// order.
func (e *Engine) handoffLoop() {
	defer close(e.handoffDone)
	for it := range e.handoffs {
		it.reply <- e.processHandoff(it.h)
	}
}

// processHandoff executes the two-phase protocol for one handoff.
func (e *Engine) processHandoff(h Handoff) HandoffResult {
	var res HandoffResult
	if h.From == nil || h.To == nil {
		e.handoffErrs.Add(1)
		res.Err = fmt.Errorf("shard: handoff of call %d needs both stations", h.CallID)
		return res
	}
	srcCi, okSrc := e.cellIdx[h.From.Hex()]
	dstCi, okDst := e.cellIdx[h.To.Hex()]
	if !okSrc || !okDst {
		e.handoffErrs.Add(1)
		res.Err = fmt.Errorf("shard: handoff of call %d touches a station outside the engine's network", h.CallID)
		return res
	}
	own := e.own.Load()
	src, dst := int(own.owner[srcCi]), int(own.owner[dstCi])
	res.CrossShard = src != dst

	// Phase 1: release at the source, serialized inside the source
	// shard's loop after everything already enqueued there.
	var call cell.Call
	var relErr error
	if err := e.services[src].Do(func(ctrl cac.Controller) {
		c, ok := h.From.Call(h.Handle)
		if !ok || c.ID != h.CallID {
			relErr = fmt.Errorf("shard: handoff of call %d from %v: %w", h.CallID, h.From.Hex(), cell.ErrUnknownCall)
			return
		}
		call, relErr = h.From.Release(h.Handle)
		if relErr != nil {
			return
		}
		if obs, ok := ctrl.(cac.Observer); ok {
			obs.OnRelease(h.CallID, h.From, h.Now)
		}
	}); err != nil {
		e.handoffErrs.Add(1)
		res.Err = err
		return res
	}
	if relErr != nil {
		e.handoffErrs.Add(1)
		res.Err = relErr
		return res
	}

	// Phase 2: admission at the target, with handoff priority. The
	// single-request wave is its own chunk, so the decision sees every
	// previously committed call.
	req := cac.Request{
		Call:    cell.Call{ID: call.ID, Class: call.Class, BU: call.BU},
		Station: h.To,
		Obs:     gps.Observe(h.Est, h.To.Pos()),
		Est:     h.Est,
		Handoff: true,
		Now:     h.Now,
	}
	atomic.AddInt64(&e.cellLoad[dstCi], 1)
	resps, err := e.services[dst].SubmitAll([]cac.Request{req})
	if err != nil {
		e.handoffErrs.Add(1)
		res.Err = err
		return res
	}
	res.Response = resps[0]
	e.handoffCount.Add(1)
	if res.CrossShard {
		e.crossShard.Add(1)
	}
	if !res.Response.Committed {
		e.drops.Add(1)
	}
	return res
}

// Stats snapshots every shard's service counters and aggregates them
// into engine totals. After Flush (or Close) the snapshot is exact.
func (e *Engine) Stats() Stats {
	st := Stats{
		Shards:            len(e.services),
		CellLocal:         e.cellLocal,
		PerShard:          make([]serve.Stats, len(e.services)),
		Waves:             e.waves.Load(),
		Handoffs:          e.handoffCount.Load(),
		CrossShard:        e.crossShard.Load(),
		Drops:             e.drops.Load(),
		Errs:              e.handoffErrs.Load(),
		Exchanges:         e.exchanges.Load(),
		GhostRows:         e.ghostRows.Load(),
		GhostRowsAllToAll: e.ghostRowsAll.Load(),
		InterestScoped:    e.interestRadius >= 0,
		Epoch:             e.own.Load().epoch,
		Rebalances:        e.rebalances.Load(),
		Migrations:        e.migrations.Load(),
		MigratedCalls:     e.migratedCalls.Load(),
	}
	for i, svc := range e.services {
		s := svc.Stats()
		st.PerShard[i] = s
		st.Total = st.Total.Merge(s)
	}
	return st
}

// Close stops handoff intake, waits for the protocol worker, then
// drains and stops every shard. Idempotent; submissions racing with
// Close either complete normally or report serve.ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.handoffs)
	}
	e.mu.Unlock()
	<-e.handoffDone
	var firstErr error
	for _, svc := range e.services {
		if err := svc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
