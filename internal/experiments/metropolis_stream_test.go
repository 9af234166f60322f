package experiments

import (
	"testing"
)

// TestMetropolisSteadyStateAllocs is the allocation gate on the
// streaming wave loop: once the run has warmed through a full diurnal
// day (population high-water reached, every scratch buffer at final
// size), additional waves on the inline paths must allocate nothing —
// zero allocations per decision, not merely few. Station pools are
// reserved to their capacity bound up front, so the only allocator the
// loop otherwise retains (per-station population high-water growth,
// bounded by CapacityBU) is paid before measurement.
func TestMetropolisSteadyStateAllocs(t *testing.T) {
	for _, mode := range []MetropolisMode{MetroSingle, MetroBatch} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := metroTestConfig(shardGuardFactory)
			cfg.Mode = mode
			cfg.Waves = 3 * cfg.WavesPerDay
			r, err := newMetroRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.engine.close()
			for _, bs := range r.workload.stations {
				bs.Reserve(bs.Capacity())
			}
			// Warm-up: one full day, reaching the ledger and scratch
			// high-water marks.
			warm := cfg.WavesPerDay
			for r.wave < warm {
				if err := r.runWave(); err != nil {
					t.Fatal(err)
				}
			}
			const measured = 12
			decisionsBefore := r.result.Requested + r.result.Handoffs
			avg := testing.AllocsPerRun(measured, func() {
				if err := r.runWave(); err != nil {
					t.Fatal(err)
				}
			})
			decisions := r.result.Requested + r.result.Handoffs - decisionsBefore
			if decisions == 0 {
				t.Fatal("steady-state waves rendered no decisions")
			}
			if avg != 0 {
				t.Errorf("steady-state wave allocates: %.2f allocs/wave over %d decisions (want 0)",
					avg, decisions)
			}
		})
	}
}
