package experiments

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/scc"
	"facs/internal/shard"
)

// TestMetropolisSCCRebalanceIdentity extends the tick-aligned SCC
// golden workload with an epoch planned at every barrier: rebalancing
// an SCC shard migrates its ledger tracks and resets the exchange, so
// the post-epoch absolute re-export must restore the exact global
// demand view — decisions stay byte-identical at shard counts 1/2/4/8
// to the single sequential ledger, epochs and all.
func TestMetropolisSCCRebalanceIdentity(t *testing.T) {
	var ledgers []*scc.Ledger
	cfg := tickAlignedMetroConfig(scc.ReservationFull, &ledgers)
	oracle, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Accepted == 0 || oracle.Accepted == oracle.Requested {
		t.Fatalf("degenerate workload: %+v", oracle)
	}
	cfg.Mode = MetroSharded
	cfg.Partition = shard.PartitionBlocks
	cfg.RebalanceEveryTicks = 1
	cfg.Rebalance = shard.PlannerConfig{MaxMoves: 4, Tolerance: 0.01}
	for _, shards := range []int{1, 2, 4, 8} {
		ledgers = nil
		cfg.Shards = shards
		res, err := RunMetropolis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := "scc-rebalance/shards-" + string(rune('0'+shards))
		sameMetroOutcome(t, label, oracle, res)
		assertEpochs(t, label, shards, res)
		if total := ledgerTotal(ledgers); shards > 1 && (total.MigratedOut == 0 || total.MigratedOut != total.MigratedIn) {
			t.Fatalf("%s: ledger tracks unbalanced across migration: out=%d in=%d",
				label, total.MigratedOut, total.MigratedIn)
		}
	}
}

// assertEpochs checks a rebalancing run's epoch accounting: a single
// shard has nothing to rebalance, while every multi-shard run applies
// epochs that actually migrate cells and calls (otherwise an identity
// over it would hold vacuously).
func assertEpochs(t *testing.T, label string, shards int, res MetropolisResult) {
	t.Helper()
	if res.Epoch != uint64(res.Rebalances) {
		t.Fatalf("%s: epoch %d after %d rebalances", label, res.Epoch, res.Rebalances)
	}
	if shards == 1 {
		if res.Rebalances != 0 {
			t.Fatalf("%s: single shard has nothing to rebalance: %+v", label, res)
		}
		return
	}
	if res.Rebalances == 0 || res.Migrations == 0 || res.MigratedCalls == 0 {
		t.Fatalf("%s: no epoch migrated anything: %d rebalances, %d cells, %d calls",
			label, res.Rebalances, res.Migrations, res.MigratedCalls)
	}
}

// TestMetropolisRebalanceIdentity pins the metropolis DecisionHash for
// cell-local controllers under elastic sharding: the diurnal hotspot
// workload rebalances hot cells between shards, yet every shard count
// reproduces the static batch baseline bit for bit.
func TestMetropolisRebalanceIdentity(t *testing.T) {
	base := metroTestConfig(shardGuardFactory)
	baseline, err := RunMetropolis(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.Mode = MetroSharded
		cfg.Shards = shards
		cfg.Partition = shard.PartitionBlocks
		cfg.RebalanceEveryTicks = 1
		cfg.Rebalance = shard.PlannerConfig{MaxMoves: 4, Tolerance: 0.01}
		res, err := RunMetropolis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := "rebalance/shards-" + string(rune('0'+shards))
		sameMetroOutcome(t, label, baseline, res)
		assertEpochs(t, label, shards, res)
	}
}

// TestMetropolisInterestScopedReduction is the fan-out acceptance on
// the hotspot metropolis: ledgers declaring a bounded interest radius
// (slow traffic, wide cells) must fan strictly fewer ghost rows than
// the all-to-all baseline on a blocks partition, with the savings
// reported in the result — while a DisableInterestScope run of the
// same scenario fans the full baseline.
func TestMetropolisInterestScopedReduction(t *testing.T) {
	cfg := metroTestConfig(func(v shard.View) (cac.Controller, error) {
		return scc.NewLedger(scc.Config{
			Network:     v.Network(),
			Reservation: scc.ReservationFull,
			MaxSpeedKmh: 30,
		})
	})
	cfg.Mode = MetroSharded
	cfg.Shards = 4
	cfg.Partition = shard.PartitionBlocks
	cfg.CellRadiusM = 2000
	cfg.SpeedKmh = Span{Min: 5, Max: 30}
	cfg.RebalanceEveryTicks = 2

	scoped, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unscopedCfg := cfg
	unscopedCfg.DisableInterestScope = true
	unscoped, err := RunMetropolis(unscopedCfg)
	if err != nil {
		t.Fatal(err)
	}

	if !scoped.InterestScoped || unscoped.InterestScoped {
		t.Fatalf("scoping flags wrong: scoped=%v unscoped=%v", scoped.InterestScoped, unscoped.InterestScoped)
	}
	if scoped.GhostRows == 0 {
		t.Fatalf("scoped exchange fanned nothing: %+v", scoped)
	}
	if scoped.GhostRows >= scoped.GhostRowsAllToAll {
		t.Fatalf("scoping saved nothing: %d fanned vs %d all-to-all", scoped.GhostRows, scoped.GhostRowsAllToAll)
	}
	if unscoped.GhostRows != unscoped.GhostRowsAllToAll {
		t.Fatalf("unscoped run should fan the full baseline: %d vs %d", unscoped.GhostRows, unscoped.GhostRowsAllToAll)
	}
	// The scoped run stays deterministic: a rerun reproduces outcomes
	// and fan-out counters exactly.
	again, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameMetroOutcome(t, "scoped-rerun", scoped, again)
	if again.GhostRows != scoped.GhostRows || again.GhostRowsAllToAll != scoped.GhostRowsAllToAll {
		t.Fatalf("fan-out not reproducible: %d/%d then %d/%d",
			scoped.GhostRows, scoped.GhostRowsAllToAll, again.GhostRows, again.GhostRowsAllToAll)
	}
	t.Logf("hotspot metropolis ghost rows: %d scoped vs %d all-to-all (%.0f%% saved)",
		scoped.GhostRows, scoped.GhostRowsAllToAll,
		100*(1-float64(scoped.GhostRows)/float64(scoped.GhostRowsAllToAll)))
}
