package shard

import (
	"math"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/scc"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// opaqueController is a controller that is neither cac.CellLocal nor a
// cac.CellMigrator — rebalancing cannot move its state.
type opaqueController struct{}

func (opaqueController) Name() string { return "opaque" }
func (opaqueController) Decide(cac.Request) (cac.Decision, error) {
	return cac.Accept, nil
}

func opaqueFactory(View) (cac.Controller, error) { return opaqueController{}, nil }

// sccFactory builds a fresh demand ledger per shard; MaxSpeedKmh bounds
// the interest radius when nonzero.
func sccFactory(maxSpeedKmh float64) func(View) (cac.Controller, error) {
	return func(v View) (cac.Controller, error) {
		return scc.NewLedger(scc.Config{Network: v.Network(), MaxSpeedKmh: maxSpeedKmh})
	}
}

// genScopedRequests samples requests honouring the SCC interest
// contract: positions inside the home cell, speeds at most maxKmh.
// Station selection is biased toward the first cells of the (Q, R)
// order (a hotspot on the blocks partition's first shards).
func genScopedRequests(t testing.TB, net *cell.Network, seed int64, n int, maxKmh float64, firstID int) []cac.Request {
	t.Helper()
	rng := sim.NewStream(seed, "shard-scoped-reqs")
	stations := net.Stations()
	inradius := 0.85 * math.Sqrt(3) / 2 * net.Layout().CellRadius
	out := make([]cac.Request, n)
	for i := range out {
		idx := rng.Intn(len(stations))
		if rng.Intn(2) == 0 {
			idx = rng.Intn(1 + len(stations)/8) // hotspot bias
		}
		bs := stations[idx]
		ang := sim.Uniform(rng, 0, 2*math.Pi)
		r := inradius * math.Sqrt(rng.Float64())
		class := traffic.DefaultMix().Sample(rng)
		est := gps.Estimate{
			Pos:        geo.Point{X: bs.Pos().X + r*math.Cos(ang), Y: bs.Pos().Y + r*math.Sin(ang)},
			HeadingDeg: sim.Uniform(rng, -180, 180),
			SpeedKmh:   sim.Uniform(rng, 0, maxKmh),
		}
		out[i] = cac.Request{
			Call:    cell.Call{ID: firstID + i, Class: class, BU: class.BandwidthUnits()},
			Station: bs,
			Obs:     gps.Observe(est, bs.Pos()),
			Est:     est,
			Now:     float64(i),
		}
	}
	return out
}

func TestRebalanceConfigValidation(t *testing.T) {
	net := testNetwork(t, 1)
	if _, err := New(Config{Network: net, NewController: guardFactory, RebalanceEveryTicks: -1}); err == nil {
		t.Fatal("negative RebalanceEveryTicks should fail")
	}
	if _, err := New(Config{Network: net, NewController: guardFactory, Partition: Partition(9)}); err == nil {
		t.Fatal("unknown partition strategy should fail")
	}
	if _, err := New(Config{Network: net, Shards: 2, NewController: opaqueFactory, RebalanceEveryTicks: 1}); err == nil {
		t.Fatal("rebalancing an immovable controller should fail construction")
	}
	// Without the cadence the opaque controller is fine — but an
	// explicit ForceRebalance must refuse.
	e, err := New(Config{Network: net, Shards: 2, NewController: opaqueFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ForceRebalance(); err == nil {
		t.Fatal("ForceRebalance on an immovable controller should error")
	}
}

func TestPartitionBlocksIsContiguousAndComplete(t *testing.T) {
	net := testNetwork(t, 2) // 19 cells
	for _, shards := range []int{1, 2, 4, 8, 19} {
		e, err := New(Config{Network: net, Shards: shards, NewController: guardFactory, Partition: PartitionBlocks})
		if err != nil {
			t.Fatal(err)
		}
		prev := 0
		total := 0
		for i, bs := range net.Stations() {
			s, ok := e.ShardOf(bs.Hex())
			if !ok {
				t.Fatalf("station %v unrouted", bs.Hex())
			}
			if s != i*e.Shards()/net.NumCells() {
				t.Fatalf("shards=%d: station %d on shard %d, want block %d", shards, i, s, i*e.Shards()/net.NumCells())
			}
			if s < prev {
				t.Fatalf("shards=%d: blocks partition not monotone at station %d", shards, i)
			}
			prev = s
		}
		for s := 0; s < e.Shards(); s++ {
			n := e.View(s).NumCells()
			if n == 0 {
				t.Fatalf("shards=%d: shard %d owns no cells", shards, s)
			}
			total += n
		}
		if total != net.NumCells() {
			t.Fatalf("shards=%d: views cover %d cells, want %d", shards, total, net.NumCells())
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// assertOwnershipPartition checks the current epoch is a partition:
// every station routed to exactly one shard, views disjoint and
// complete, view contents matching the router.
func assertOwnershipPartition(t *testing.T, e *Engine, net *cell.Network) {
	t.Helper()
	seen := make(map[geo.Hex]int)
	for s := 0; s < e.Shards(); s++ {
		for _, bs := range e.View(s).Stations() {
			if owner, dup := seen[bs.Hex()]; dup {
				t.Fatalf("cell %v in views of shards %d and %d", bs.Hex(), owner, s)
			}
			seen[bs.Hex()] = s
			if r, ok := e.ShardOf(bs.Hex()); !ok || r != s {
				t.Fatalf("cell %v in view %d but routes to %d (ok=%v)", bs.Hex(), s, r, ok)
			}
		}
	}
	if len(seen) != net.NumCells() {
		t.Fatalf("views cover %d cells, want %d", len(seen), net.NumCells())
	}
}

// TestForceRebalanceMigratesAndConserves drives a hotspot onto the
// blocks partition's first shard, forces an epoch, and pins the
// conservation laws: ownership stays a partition, per-station call
// slots and class occupancy are untouched by the move, every carried
// call survives and remains releasable through the (re-routed) engine.
func TestForceRebalanceMigratesAndConserves(t *testing.T) {
	net := testNetwork(t, 2) // 19 cells
	e, err := New(Config{
		Network: net, Shards: 4, Commit: true, NewController: guardFactory,
		Partition: PartitionBlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Every request lands on shard 0's block: cells 0..4.
	reqs := genRequests(t, net, 31, 400)
	stations := net.Stations()
	for i := range reqs {
		reqs[i].Station = stations[i%5]
	}
	resps, err := e.SubmitWave(reqs)
	if err != nil {
		t.Fatal(err)
	}
	type held struct {
		bs *cell.BaseStation
		h  cell.Handle
	}
	committed := make(map[int]held)
	for i, r := range resps {
		if r.Committed {
			committed[reqs[i].Call.ID] = held{bs: reqs[i].Station, h: r.Handle}
		}
	}
	if len(committed) == 0 {
		t.Fatal("hotspot committed nothing")
	}
	type cellState struct {
		used int
		bu   [4]int
	}
	before := make(map[geo.Hex]cellState)
	totalUsed := 0
	for _, bs := range stations {
		st := cellState{used: bs.Used()}
		for cl := traffic.Text; cl <= traffic.Video; cl++ {
			st.bu[cl] = bs.ClassBU(cl)
		}
		before[bs.Hex()] = st
		totalUsed += st.used
	}

	if err := e.ForceRebalance(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if e.Epoch() != 1 || st.Rebalances != 1 {
		t.Fatalf("expected one applied epoch, got epoch %d rebalances %d", e.Epoch(), st.Rebalances)
	}
	if st.Migrations == 0 || st.MigratedCalls == 0 {
		t.Fatalf("hotspot epoch moved nothing: %+v", st)
	}
	assertOwnershipPartition(t, e, net)

	// The hot shard must have shed at least one of its cells.
	movedOff := false
	for i := 0; i < 5; i++ {
		if s, _ := e.ShardOf(stations[i].Hex()); s != 0 {
			movedOff = true
		}
	}
	if !movedOff {
		t.Fatal("no hotspot cell left shard 0")
	}

	// Conservation: station state is bit-identical cell by cell.
	afterTotal := 0
	for _, bs := range stations {
		want := before[bs.Hex()]
		if bs.Used() != want.used {
			t.Fatalf("station %v used %d after rebalance, want %d", bs.Hex(), bs.Used(), want.used)
		}
		for cl := traffic.Text; cl <= traffic.Video; cl++ {
			if bs.ClassBU(cl) != want.bu[cl] {
				t.Fatalf("station %v class %v BU %d after rebalance, want %d", bs.Hex(), cl, bs.ClassBU(cl), want.bu[cl])
			}
		}
		afterTotal += bs.Used()
	}
	if afterTotal != totalUsed {
		t.Fatalf("total occupancy %d after rebalance, want %d", afterTotal, totalUsed)
	}
	// Every committed call is still carried and releasable via the
	// re-routed engine.
	for id, c := range committed {
		if got, ok := c.bs.Call(c.h); !ok || got.ID != id {
			t.Fatalf("call %d lost from %v by the rebalance", id, c.bs.Hex())
		}
	}
	for id, c := range committed {
		if err := e.Release(id, c.h, c.bs, 1000); err != nil {
			t.Fatalf("releasing migrated call %d: %v", id, err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for id, c := range committed {
		if _, ok := c.bs.Call(c.h); ok {
			t.Fatalf("call %d still carried after release", id)
		}
	}
	if st := e.Stats(); st.Total.OpErrs != 0 {
		t.Fatalf("%d releases of migrated calls failed", st.Total.OpErrs)
	}
}

// TestRebalanceKeepsCallHandles pins the handle contract across an
// ownership epoch: the station objects never move, so every handle a
// client took from a commit before the migration still names its call
// afterwards — it releases through the re-routed engine, and it drives
// a handoff whose new handle releases in turn — with no op or protocol
// error anywhere.
func TestRebalanceKeepsCallHandles(t *testing.T) {
	net := testNetwork(t, 2) // 19 cells
	e, err := New(Config{
		Network: net, Shards: 4, Commit: true, NewController: guardFactory,
		Partition: PartitionBlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// A hotspot on shard 0's block (cells 0..4) forces migrations.
	reqs := genRequests(t, net, 53, 300)
	stations := net.Stations()
	for i := range reqs {
		reqs[i].Station = stations[i%5]
	}
	resps, err := e.SubmitWave(reqs)
	if err != nil {
		t.Fatal(err)
	}
	type held struct {
		req cac.Request
		h   cell.Handle
		rec cell.Call
	}
	var calls []held
	for i, r := range resps {
		if r.Committed {
			rec, ok := reqs[i].Station.Call(r.Handle)
			if !ok || rec.ID != reqs[i].Call.ID {
				t.Fatalf("commit handle of call %d resolves to %+v,%v", reqs[i].Call.ID, rec, ok)
			}
			calls = append(calls, held{req: reqs[i], h: r.Handle, rec: rec})
		}
	}
	if err := e.ForceRebalance(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Migrations == 0 || st.MigratedCalls == 0 {
		t.Fatalf("the hotspot epoch migrated nothing: %+v", st)
	}

	for i, c := range calls {
		bs := c.req.Station
		if rec, ok := bs.Call(c.h); !ok || rec != c.rec {
			t.Fatalf("call %d after the epoch: %+v,%v, want %+v", c.rec.ID, rec, ok, c.rec)
		}
		if i%2 == 0 {
			if err := e.Release(c.rec.ID, c.h, bs, 100); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// Hand the odd calls to a cell outside the hotspot block, then
		// release them there through the handle the handoff returned.
		to := stations[5+i%(len(stations)-5)]
		res := e.HandoffCall(Handoff{CallID: c.rec.ID, Handle: c.h, From: bs, To: to, Est: c.req.Est, Now: 100})
		if res.Err != nil {
			t.Fatalf("handoff of migrated call %d: %v", c.rec.ID, res.Err)
		}
		if res.Response.Committed {
			if err := e.Release(c.rec.ID, res.Response.Handle, to, 101); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Total.OpErrs != 0 || st.Errs != 0 {
		t.Fatalf("handles held across the epoch failed: %d release errors, %d handoff errors", st.Total.OpErrs, st.Errs)
	}
	for _, bs := range stations {
		if bs.NumCalls() != 0 || bs.Used() != 0 {
			t.Fatalf("station %v still carries %d calls (%d BU)", bs.Hex(), bs.NumCalls(), bs.Used())
		}
	}
}

// soakResult is one run's complete observable stream.
type soakResult struct {
	outcomes []outcome
	handoffs []bool // per handoff: survived?
	used     []int  // final per-station occupancy
	epoch    uint64
}

// runRebalanceSoak drives one seeded randomized interleaving of waves,
// releases, neighbour handoffs, barrier ticks (with rebalancing every
// tick) and forced rebalances against a fresh engine.
func runRebalanceSoak(t *testing.T, seed int64, shards, rounds int, partition Partition) soakResult {
	t.Helper()
	const rings, waveLen, maxBatch = 2, 48, 16
	net := testNetwork(t, rings)
	e, err := New(Config{
		Network: net, Shards: shards, MaxBatch: maxBatch, Commit: true,
		NewController: guardFactory, Partition: partition,
		RebalanceEveryTicks: 1, Rebalance: PlannerConfig{MaxMoves: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	stations := net.Stations()
	var res soakResult
	type liveCall struct {
		id      int
		h       cell.Handle
		station *cell.BaseStation
		est     gps.Estimate
		due     int
	}
	var live []liveCall
	nextID := 1
	for round := 0; round < rounds; round++ {
		now := float64(round)
		// Releases due this round, in admission order.
		keep := live[:0]
		for _, c := range live {
			if c.due <= round {
				if err := e.Release(c.id, c.h, c.station, now); err != nil {
					t.Fatalf("seed %d round %d: release %d: %v", seed, round, c.id, err)
				}
				continue
			}
			keep = append(keep, c)
		}
		live = keep

		// Barrier tick: flush + rebalance epoch + (no-op) exchange.
		if err := e.Tick(now); err != nil {
			t.Fatalf("seed %d round %d: tick: %v", seed, round, err)
		}
		if round%7 == 3 {
			if err := e.ForceRebalance(); err != nil {
				t.Fatalf("seed %d round %d: forced rebalance: %v", seed, round, err)
			}
		}

		// Handoff a deterministic slice of live calls to a neighbour.
		if round%2 == 1 {
			for i := 0; i < len(live); i += 5 {
				c := &live[i]
				nbrs := net.Neighbors(c.station.Hex())
				if len(nbrs) == 0 {
					continue
				}
				to := nbrs[(c.id+round)%len(nbrs)]
				r := e.HandoffCall(Handoff{CallID: c.id, Handle: c.h, From: c.station, To: to, Est: c.est, Now: now})
				if r.Err != nil {
					t.Fatalf("seed %d round %d: handoff %d: %v", seed, round, c.id, r.Err)
				}
				res.handoffs = append(res.handoffs, !r.Dropped())
				if r.Dropped() {
					// The source released regardless; drop it from the pool
					// by marking it due immediately (already released).
					live[i].due = -1
					live[i].id = -live[i].id // never released again (negative IDs skip)
				} else {
					live[i].station = to
					live[i].h = r.Response.Handle
				}
			}
			// Compact dropped entries.
			kept := live[:0]
			for _, c := range live {
				if c.id > 0 {
					kept = append(kept, c)
				}
			}
			live = kept
		}

		// One admission wave.
		reqs := genRequests(t, net, seed+int64(round)*1009, waveLen)
		for i := range reqs {
			reqs[i].Call.ID = nextID
			reqs[i].Now = now
			nextID++
		}
		resps, err := e.SubmitWave(reqs)
		if err != nil {
			t.Fatalf("seed %d round %d: wave: %v", seed, round, err)
		}
		for i, r := range resps {
			res.outcomes = append(res.outcomes, outcome{d: r.Decision, committed: r.Committed})
			if r.Committed {
				live = append(live, liveCall{
					id: reqs[i].Call.ID, h: r.Handle, station: reqs[i].Station, est: reqs[i].Est,
					due: round + 2 + (reqs[i].Call.ID % 5),
				})
			}
		}
		assertOwnershipPartition(t, e, net)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, bs := range stations {
		res.used = append(res.used, bs.Used())
	}
	res.epoch = e.Epoch()
	return res
}

// TestRebalanceRandomizedSoak is the migration protocol's soak suite:
// seeded interleavings of waves, releases, neighbour handoffs, barrier
// ticks (rebalancing on every tick) and mid-run forced rebalances must
// leave the decision, commit and handoff streams — and the final
// per-station occupancy — byte-identical across shard counts 1/2/4/8
// and both partition layouts, while ownership stays a partition at
// every wave boundary. Rebalancing must actually fire on the
// multi-shard runs for the identity to be non-vacuous.
func TestRebalanceRandomizedSoak(t *testing.T) {
	seeds := []int64{3, 41, 97}
	rounds := 24
	if testing.Short() {
		seeds = seeds[:1]
		rounds = 12
	}
	for _, seed := range seeds {
		for _, partition := range []Partition{PartitionRoundRobin, PartitionBlocks} {
			oracle := runRebalanceSoak(t, seed, 1, rounds, partition)
			if len(oracle.outcomes) == 0 || len(oracle.handoffs) == 0 {
				t.Fatalf("seed %d: degenerate soak (no outcomes or handoffs)", seed)
			}
			sawRebalance := false
			for _, shards := range []int{2, 4, 8} {
				got := runRebalanceSoak(t, seed, shards, rounds, partition)
				if got.epoch > 0 {
					sawRebalance = true
				}
				if len(got.outcomes) != len(oracle.outcomes) {
					t.Fatalf("seed %d shards %d: %d outcomes, oracle %d", seed, shards, len(got.outcomes), len(oracle.outcomes))
				}
				for i := range oracle.outcomes {
					if got.outcomes[i] != oracle.outcomes[i] {
						t.Fatalf("seed %d shards %d partition %d: outcome %d is %+v, oracle %+v",
							seed, shards, partition, i, got.outcomes[i], oracle.outcomes[i])
					}
				}
				if len(got.handoffs) != len(oracle.handoffs) {
					t.Fatalf("seed %d shards %d: %d handoffs, oracle %d", seed, shards, len(got.handoffs), len(oracle.handoffs))
				}
				for i := range oracle.handoffs {
					if got.handoffs[i] != oracle.handoffs[i] {
						t.Fatalf("seed %d shards %d: handoff %d survived=%v, oracle %v", seed, shards, i, got.handoffs[i], oracle.handoffs[i])
					}
				}
				for i := range oracle.used {
					if got.used[i] != oracle.used[i] {
						t.Fatalf("seed %d shards %d: station %d used %d, oracle %d", seed, shards, i, got.used[i], oracle.used[i])
					}
				}
			}
			if !sawRebalance {
				t.Fatalf("seed %d partition %d: no multi-shard run ever rebalanced — identity held vacuously", seed, partition)
			}
		}
	}
}

// runScopedSCC drives a tick-aligned hotspot workload through an SCC
// engine and returns the outcome stream plus final stats.
func runScopedSCC(t *testing.T, shards int, maxSpeedKmh float64, disableScope bool, rebalanceTicks int) ([]outcome, Stats) {
	t.Helper()
	const rings, waves, waveLen, maxBatch = 4, 12, 64, 64
	net := testNetwork(t, rings)
	e, err := New(Config{
		Network: net, Shards: shards, MaxBatch: maxBatch, Commit: true,
		NewController: sccFactory(maxSpeedKmh), Partition: PartitionBlocks,
		RebalanceEveryTicks: rebalanceTicks, DisableInterestScope: disableScope,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	var out []outcome
	id := 1
	for w := 0; w < waves; w++ {
		reqs := genScopedRequests(t, net, int64(1000+w), waveLen, maxSpeedKmh, id)
		id += waveLen
		resps, err := e.SubmitWave(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resps {
			out = append(out, outcome{d: r.Decision, committed: r.Committed})
		}
		if err := e.Tick(float64(w)); err != nil {
			t.Fatal(err)
		}
	}
	return out, e.Stats()
}

// TestInterestScopedExchangeReducesFanOut is the fan-out acceptance
// test: on a blocks-partitioned SCC engine whose ledgers declare a
// bounded interest radius, the scoped exchange must fan strictly fewer
// ghost rows than the all-to-all baseline on a hotspot workload — while
// leaving every admission outcome byte-identical to both the unscoped
// run and the 1-shard sequential baseline, with rebalancing enabled.
func TestInterestScopedExchangeReducesFanOut(t *testing.T) {
	const maxKmh = 30.0
	oracle, _ := runScopedSCC(t, 1, maxKmh, false, 2)
	scoped, scopedStats := runScopedSCC(t, 4, maxKmh, false, 2)
	unscoped, unscopedStats := runScopedSCC(t, 4, maxKmh, true, 2)

	if !scopedStats.InterestScoped {
		t.Fatalf("bounded-radius ledgers should scope the exchange: %+v", scopedStats)
	}
	if unscopedStats.InterestScoped {
		t.Fatal("DisableInterestScope run still reports scoping")
	}
	if scopedStats.GhostRows == 0 || scopedStats.Exchanges == 0 {
		t.Fatalf("scoped exchange never fanned rows: %+v", scopedStats)
	}
	if scopedStats.GhostRows >= scopedStats.GhostRowsAllToAll {
		t.Fatalf("scoping saved nothing: %d fanned vs %d all-to-all", scopedStats.GhostRows, scopedStats.GhostRowsAllToAll)
	}
	if unscopedStats.GhostRows != unscopedStats.GhostRowsAllToAll {
		t.Fatalf("unscoped run should fan the full baseline: %d vs %d", unscopedStats.GhostRows, unscopedStats.GhostRowsAllToAll)
	}
	if scopedStats.Rebalances == 0 {
		t.Fatalf("rebalancing never fired: %+v", scopedStats)
	}
	for i := range oracle {
		if scoped[i] != oracle[i] {
			t.Fatalf("scoped outcome %d is %+v, sequential baseline %+v", i, scoped[i], oracle[i])
		}
		if unscoped[i] != oracle[i] {
			t.Fatalf("unscoped outcome %d is %+v, sequential baseline %+v", i, unscoped[i], oracle[i])
		}
	}
	t.Logf("ghost rows: %d scoped vs %d all-to-all (%.0f%% saved)",
		scopedStats.GhostRows, scopedStats.GhostRowsAllToAll,
		100*(1-float64(scopedStats.GhostRows)/float64(scopedStats.GhostRowsAllToAll)))
}

// TestRebalanceStatsAggregation pins the new Stats surface: migration
// counters flow through, the merged latency histogram stays
// bucket-bounded and consistent with the per-shard snapshots, and the
// one-line summary mentions the rebalance activity.
func TestRebalanceStatsAggregation(t *testing.T) {
	net := testNetwork(t, 2)
	e, err := New(Config{
		Network: net, Shards: 4, Commit: true, NewController: guardFactory,
		Partition: PartitionBlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reqs := genRequests(t, net, 77, 300)
	stations := net.Stations()
	for i := range reqs {
		reqs[i].Station = stations[i%5] // hotspot on shard 0's block
	}
	if _, err := e.SubmitWave(reqs); err != nil {
		t.Fatal(err)
	}
	if err := e.ForceRebalance(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Epoch != 1 || st.Rebalances != 1 || st.Migrations == 0 || st.MigratedCalls == 0 {
		t.Fatalf("rebalance counters missing: %+v", st)
	}
	var decided, histSum int64
	for _, ps := range st.PerShard {
		decided += ps.Decided
		var s int64
		for _, b := range ps.LatencyHist {
			if b < 0 {
				t.Fatalf("negative histogram bucket in %+v", ps.LatencyHist)
			}
			s += b
		}
		if s != ps.Decided {
			t.Fatalf("per-shard histogram sums to %d, decided %d", s, ps.Decided)
		}
	}
	for _, b := range st.Total.LatencyHist {
		if b < 0 {
			t.Fatal("negative merged histogram bucket")
		}
		histSum += b
	}
	if st.Total.Decided != decided || histSum != decided {
		t.Fatalf("merged totals decided=%d histSum=%d, per-shard sum %d", st.Total.Decided, histSum, decided)
	}
	if got := st.String(); !containsAll(got, "rebalances 1", "epoch 1") {
		t.Fatalf("summary misses rebalance info: %s", got)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
