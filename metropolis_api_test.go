package facs_test

import (
	"testing"

	"facs"
)

// TestPublicMetropolis exercises the metropolis scenario through the
// root facade: batch and sharded paths must agree byte-for-byte for a
// cell-local controller.
func TestPublicMetropolis(t *testing.T) {
	cfg := facs.MetropolisConfig{
		NewController: func(facs.ShardView) (facs.Controller, error) {
			return facs.NewGuardChannel(8)
		},
		Rings:       2,
		TargetCalls: 400,
		Waves:       12,
		WavesPerDay: 24,
		Seed:        3,
	}
	batch, err := facs.RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Mode != facs.MetroBatch {
		t.Fatalf("default mode = %v, want batch", batch.Mode)
	}
	if batch.Requested == 0 || batch.Committed == 0 {
		t.Fatalf("degenerate run: %+v", batch)
	}
	cfg.Mode = facs.MetroSharded
	cfg.Shards = 2
	sharded, err := facs.RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.DecisionHash != batch.DecisionHash {
		t.Fatalf("sharded hash %#x != batch hash %#x", sharded.DecisionHash, batch.DecisionHash)
	}
	if sharded.Requested != batch.Requested || sharded.Committed != batch.Committed ||
		sharded.Handoffs != batch.Handoffs || sharded.PeakConcurrent != batch.PeakConcurrent {
		t.Fatalf("sharded counters diverged: %+v vs %+v", sharded, batch)
	}
}

// TestPublicGhostExchange smokes the demand-exchange surface: SCC
// ledgers built per shard enable the tick-barrier exchange, the
// metropolis result reports the fanned ghost rows, and every shard's
// ledger counters record the exports and ghost applies.
func TestPublicGhostExchange(t *testing.T) {
	var _ facs.DemandExchangingController = (*facs.SCCLedger)(nil)
	var ledgers []*facs.SCCLedger
	res, err := facs.RunMetropolis(facs.MetropolisConfig{
		NewController: func(v facs.ShardView) (facs.Controller, error) {
			l, err := facs.NewSCCLedger(facs.SCCConfig{
				Network:     v.Network(),
				Reservation: facs.SCCReservationFull,
			})
			ledgers = append(ledgers, l)
			return l, err
		},
		Mode:              facs.MetroSharded,
		Shards:            4,
		Rings:             2,
		TargetCalls:       200,
		Waves:             12,
		WavesPerDay:       24,
		TickEveryWaves:    2,
		HandoffEveryWaves: 1 << 30,
		Seed:              9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GhostRows == 0 {
		t.Fatalf("exchange fanned no ghost rows: %+v", res)
	}
	if len(ledgers) != res.Shards {
		t.Fatalf("built %d ledgers for %d shards", len(ledgers), res.Shards)
	}
	var total facs.SCCLedgerStats
	for _, l := range ledgers {
		total = total.Add(l.Snapshot())
	}
	if total.Exports == 0 || total.GhostApplies == 0 {
		t.Fatalf("ledger counters missed the exchange: %+v", total)
	}
}
