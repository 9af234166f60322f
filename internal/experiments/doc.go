// Package experiments contains the reproduction and load harness: one
// driver per figure of the paper's evaluation section (Figs. 7-10), the
// ablation studies enumerated in ablations.go, the one-shot batch
// admission sweep (RunBatchAdmission, the one open-loop driver: it
// decides against a static preloaded snapshot with no commits), and the
// metropolis-scale diurnal workload (RunMetropolis, the one closed-loop
// driver) — a city-sized hex deployment with rush-hour hotspot
// mobility, runnable through the single, batch and sharded decision
// paths (the latter over the internal/shard engine).
//
// # Determinism
//
// Every experiment is deterministic for a given configuration: each
// replication derives all of its randomness from its own seed via
// sim.NewStream, so figure results are byte-identical for every worker
// count (RunSingleCellSeeds/RunMultiCellSeeds shard replications over a
// worker pool), and RunMetropolis folds every decision into one FNV-1a
// digest that is identical across repeats, decision paths and shard
// counts for cell-local controllers (cac.CellLocal), and for the SCC
// ledger on tick-aligned waves. The determinism suites in
// parallel_test.go, dispatch_test.go, metropolis_test.go,
// rebalance_test.go and ghost_test.go pin these contracts.
//
// # Entry points
//
// Figure7..Figure10 and AllFigures regenerate the paper artifacts under
// a FigureConfig (load points, seeds, workers, compiled fast path);
// AllAblations runs the sensitivity studies; RunSingleCell/RunMultiCell
// execute one scenario; RunBatchAdmission sweeps a request batch
// against a loaded network snapshot; RunMetropolis runs the city-scale
// diurnal day with held calls, releases, ticks and neighbour handoffs. The controller
// factories (FACSFactory, CompiledFACSFactory, SCCFactory,
// SCCRecomputeFactory) build the multi-cell contestants.
package experiments
