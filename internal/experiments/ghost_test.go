package experiments

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/scc"
	"facs/internal/shard"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// tickAlignedMetroConfig is the golden SCC workload on the metropolis
// loop: every wave fits one MaxBatch chunk and is followed by a barrier
// tick (whose exchange republishes every shard's demand), and handoffs
// — which would inject cross-shard mutations between barriers — never
// fire. Under it, every admission any shard performs is visible to
// every other shard before the next decision is rendered, exactly like
// the single sequential ledger of MetroBatch. The factory records each
// ledger it builds in *ledgers, so tests can read the counters after
// the run.
func tickAlignedMetroConfig(mode scc.ReservationMode, ledgers *[]*scc.Ledger) MetropolisConfig {
	return MetropolisConfig{
		NewController: func(v shard.View) (cac.Controller, error) {
			l, err := scc.NewLedger(scc.Config{Network: v.Network(), Reservation: mode})
			*ledgers = append(*ledgers, l)
			return l, err
		},
		Rings:             2, // 19 cells
		CapacityBU:        40,
		TargetCalls:       120,
		Waves:             48,
		TickEveryWaves:    1,       // barrier tick + ghost exchange after every wave
		HandoffEveryWaves: 1 << 30, // no handoff rounds
		MaxBatch:          4096,    // covers the largest wave: one chunk per wave
		Seed:              47,
	}
}

// ledgerTotal aggregates the recorded ledgers' counters.
func ledgerTotal(ledgers []*scc.Ledger) scc.LedgerStats {
	var total scc.LedgerStats
	for _, l := range ledgers {
		total = total.Add(l.Snapshot())
	}
	return total
}

// TestMetropolisSCCGhostExchangeIdentity pins the ghost-demand
// exchange: with tick-aligned waves it restores the Shadow Cluster
// baseline's GLOBAL demand visibility, so sharded SCC decisions are
// byte-identical at shard counts 1/2/4/8 to the sequential
// single-ledger MetroBatch run. ReservationFull aggregates are sums of
// whole bandwidth units, making the identity exact by construction; the
// weighted mode is pinned at the same seed (summation-order noise is
// orders of magnitude below the ledger's guard band).
func TestMetropolisSCCGhostExchangeIdentity(t *testing.T) {
	for _, mode := range []scc.ReservationMode{scc.ReservationFull, scc.ReservationWeighted} {
		t.Run(mode.String(), func(t *testing.T) {
			var ledgers []*scc.Ledger
			cfg := tickAlignedMetroConfig(mode, &ledgers)
			oracle, err := RunMetropolis(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if oracle.Accepted == 0 || oracle.Accepted == oracle.Requested || oracle.Released == 0 {
				// Without both accepts and demand-driven rejects the
				// identity would hold vacuously.
				t.Fatalf("degenerate workload: %+v", oracle)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				ledgers = nil
				cfg.Mode = MetroSharded
				cfg.Shards = shards
				res, err := RunMetropolis(cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := mode.String() + "/shards-" + string(rune('0'+shards))
				sameMetroOutcome(t, label, oracle, res)
				if len(ledgers) != shards {
					t.Fatalf("%s: factory built %d ledgers", label, len(ledgers))
				}
				if shards > 1 && res.GhostRows == 0 {
					t.Fatalf("%s: exchange fanned out no demand rows", label)
				}
				if shards == 1 && res.GhostRows != 0 {
					t.Fatalf("%s: a 1-shard engine has no siblings to fan rows to", label)
				}
				total := ledgerTotal(ledgers)
				if total.Exports == 0 || (shards > 1 && total.GhostApplies == 0) {
					t.Fatalf("%s: ledger counters missed the exchange: %+v", label, total)
				}
			}
		})
	}
}

// The free-running divergence workload: uniform arrivals over a
// 19-cell network, fixed 40-request waves held for 3 waves, a barrier
// tick every 4 waves and no handoffs.
const (
	uniformRequests  = 600
	uniformWave      = 40
	uniformHoldWaves = 3
	uniformTickEvery = 4
)

// localLedger is the method set of an SCC ledger minus the
// cac.DemandExchanger methods.
type localLedger interface {
	cac.BatchController
	cac.Observer
	cac.Ticker
}

// partitionedLedger exposes only localLedger, so an engine of them runs
// no ghost exchange: each shard sees only the demand of calls homed on
// its own cells (the partitioned-visibility model the exchange
// replaced).
type partitionedLedger struct{ localLedger }

// runUniformSCC drives the divergence workload through a shard.Engine
// of per-shard ReservationFull SCC ledgers, with or without the ghost
// exchange, and returns the per-request decision stream plus the
// engine's counters. With one shard the engine is the sequential
// single ledger.
func runUniformSCC(t *testing.T, shards int, exchange bool) ([]cac.Decision, shard.Stats) {
	t.Helper()
	sampleCfg := BatchAdmissionConfig{
		Rings:       2,
		CellRadiusM: 1500,
		CapacityBU:  cell.DefaultCapacityBU,
		Mix:         traffic.DefaultMix(),
		SpeedKmh:    Span{Min: 10, Max: 80},
	}
	net, err := cell.NewNetwork(cell.NetworkConfig{
		Rings:       sampleCfg.Rings,
		CellRadiusM: sampleCfg.CellRadiusM,
		CapacityBU:  sampleCfg.CapacityBU,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := shard.New(shard.Config{
		Network: net,
		Shards:  shards,
		NewController: func(v shard.View) (cac.Controller, error) {
			l, err := scc.NewLedger(scc.Config{Network: v.Network(), Reservation: scc.ReservationFull})
			if err != nil || exchange {
				return l, err
			}
			return partitionedLedger{l}, nil
		},
		MaxBatch: uniformWave,
		Commit:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	type held struct {
		releaseWave, id int
		h               cell.Handle
		station         *cell.BaseStation
	}
	var active []held
	decisions := make([]cac.Decision, 0, uniformRequests)
	rng := sim.NewStream(47, "sharded")
	reqs := make([]cac.Request, uniformWave)
	for wave := 0; len(decisions) < uniformRequests; wave++ {
		now := float64(wave)
		keep := active[:0]
		for _, c := range active {
			if c.releaseWave > wave {
				keep = append(keep, c)
				continue
			}
			if err := engine.Release(c.id, c.h, c.station, now); err != nil {
				t.Fatal(err)
			}
		}
		active = keep
		if wave > 0 && wave%uniformTickEvery == 0 {
			if err := engine.Tick(now); err != nil {
				t.Fatal(err)
			}
		}
		for i := range reqs {
			req, err := sampleBatchRequest(rng, net, sampleCfg, len(decisions)+i+1)
			if err != nil {
				t.Fatal(err)
			}
			req.Now = now
			reqs[i] = req
		}
		responses, err := engine.SubmitWave(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, resp := range responses {
			if resp.Err != nil && !resp.Decision.Accepted() {
				t.Fatal(resp.Err)
			}
			decisions = append(decisions, resp.Decision)
			if resp.Committed {
				active = append(active, held{wave + uniformHoldWaves, reqs[i].Call.ID, resp.Handle, reqs[i].Station})
			}
		}
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	return decisions, engine.Stats()
}

// divergence counts position-wise mismatches and reports the index of
// the first one (-1 when the streams agree).
func divergence(got, want []cac.Decision) (count, first int) {
	first = -1
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			if first < 0 {
				first = i
			}
			count++
		}
	}
	return count, first
}

// TestShardedSCCFreeRunningDivergenceBounded quantifies the model gap
// that remains when waves free-run between barriers (ticks every 4
// waves): shards only learn of each other's admissions at the next
// exchange, so decisions may diverge from the sequential ledger — but
// ONLY from intra-epoch admissions. Concretely: the first wave after a
// barrier decides against fully synchronized demand, so the FIRST
// divergent decision must sit in an intra-epoch wave; and switching the
// exchange off (the partitioned-visibility model) must diverge at least
// as much, never less.
func TestShardedSCCFreeRunningDivergenceBounded(t *testing.T) {
	oracle, _ := runUniformSCC(t, 1, true)
	withExchange, _ := runUniformSCC(t, 4, true)
	without, stats := runUniformSCC(t, 4, false)
	if stats.Exchanges != 0 {
		t.Fatalf("partitioned ledgers exchanged: %+v", stats)
	}

	divWith, firstWith := divergence(withExchange, oracle)
	divWithout, _ := divergence(without, oracle)
	t.Logf("free-running divergence vs sequential ledger: %d/%d with exchange (first at %d), %d/%d without",
		divWith, len(oracle), firstWith, divWithout, len(oracle))

	if divWithout == 0 {
		t.Fatal("partitioned visibility never diverged: the workload cannot distinguish the models")
	}
	if divWith > divWithout {
		t.Fatalf("exchange increased divergence: %d with vs %d without", divWith, divWithout)
	}
	if firstWith >= 0 {
		// Requests stream in fixed-size waves, so an index maps straight
		// to its wave. A wave w with w%uniformTickEvery == 0 was decided
		// right after a barrier exchange against fully synchronized
		// demand: state there is identical to the sequential ledger's
		// until an earlier divergence exists, so the FIRST divergence
		// cannot sit in such a wave.
		if wave := firstWith / uniformWave; wave%uniformTickEvery == 0 {
			t.Fatalf("first divergence at request %d falls in tick-aligned wave %d", firstWith, wave)
		}
	}
	// The exchange must close most of the gap on this workload; the
	// residual is bounded well below the partitioned model's divergence.
	if divWith*2 > divWithout {
		t.Fatalf("exchange left %d of %d divergences — more than half the partitioned model's", divWith, divWithout)
	}
}
