package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"facs"
)

// metroWorkload is one in-process workload: a fully specified
// RunMetropolis deployment and the controller it runs.
type metroWorkload struct {
	name string
	// config sets every scale field explicitly, so a later change of a
	// program default cannot move the workload.
	config func(seed int64) facs.MetropolisConfig
	// newController builds a fresh controller; compiled FACS compiles
	// its surfaces here, inside the run's set-up.
	newController func() (facs.Controller, error)
	// layer names the package the controller lives in ("cac" for the
	// classical baselines, "facs" for the fuzzy system).
	layer string
}

// guardHot runs the guard channel on a city whose stations are sized
// near the mean per-cell rush-hour load, so calls really block and the
// wave driver and station ledgers do almost all the work.
var guardHot = metroWorkload{
	name: "metro-guard-hot",
	config: func(seed int64) facs.MetropolisConfig {
		return facs.MetropolisConfig{
			Mode: facs.MetroBatch, MaxBatch: 256,
			Rings: 18, TargetCalls: 300000, CapacityBU: 900,
			Waves: 96, WavesPerDay: 96, Seed: seed,
		}
	},
	newController: func() (facs.Controller, error) { return facs.NewGuardChannel(8) },
	layer:         "cac",
}

// facs40BU runs compiled FACS at the paper's 40 BU, the one capacity at
// which FLC2's counter universe is right, with rush-hour load above
// capacity; the fuzzy controllers dominate both set-up and the loop.
var facs40BU = metroWorkload{
	name: "metro-facs-40bu",
	config: func(seed int64) facs.MetropolisConfig {
		return facs.MetropolisConfig{
			Mode: facs.MetroBatch, MaxBatch: 256,
			Rings: 18, TargetCalls: 8000, CapacityBU: 40,
			Waves: 192, WavesPerDay: 96, Seed: seed,
		}
	},
	newController: func() (facs.Controller, error) {
		return facs.NewCompiledSystem(facs.DefaultSurfaceGridSize)
	},
	layer: "facs",
}

// metroRun is one RunMetropolis call as the benchmark saw it.
type metroRun struct {
	res     facs.MetropolisResult
	ctrl    facs.Controller // the bare controller the call ran
	setup   time.Duration   // call wall time minus the wave loop
	build   time.Duration   // controller construction inside set-up
	loopCPU time.Duration   // process CPU from controller ready to return
	// mallocBytes and gcCycles are runtime deltas over the same
	// stretch, read only when asked for (ReadMemStats stops the world).
	mallocBytes, gcCycles uint64
}

// metroOpts selects what one call measures.
type metroOpts struct {
	// reuse runs an already built controller instead of building one,
	// so the call's set-up leaves out controller construction.
	reuse      facs.Controller
	hook       decideHook // nil runs the bare controller
	onCtrl     func(facs.Controller)
	setupOnly  bool // stop before the first wave
	measureMem bool
	memStats   bool
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runMetro(w metroWorkload, seed int64, o metroOpts) (metroRun, error) {
	var run metroRun
	var cpu0 time.Duration
	var ms0 runtime.MemStats
	cfg := w.config(seed)
	cfg.MeasureMem = o.measureMem
	if o.setupOnly {
		stop := make(chan struct{})
		close(stop)
		cfg.Stop = stop
	}
	cfg.NewController = func(facs.ShardView) (facs.Controller, error) {
		ctrl := o.reuse
		if ctrl == nil {
			t0 := time.Now()
			built, err := w.newController()
			run.build = time.Since(t0)
			if err != nil {
				return nil, err
			}
			ctrl = built
		}
		run.ctrl = ctrl
		if o.onCtrl != nil {
			o.onCtrl(ctrl)
		}
		if o.hook != nil {
			wrapped, err := wrapController(ctrl, o.hook)
			if err != nil {
				return nil, err
			}
			ctrl = wrapped
		}
		if o.memStats {
			runtime.ReadMemStats(&ms0)
		}
		cpu0 = processCPU()
		return ctrl, nil
	}
	t0 := time.Now()
	res, err := facs.RunMetropolis(cfg)
	wall := time.Since(t0)
	run.loopCPU = processCPU() - cpu0
	if err != nil {
		return run, fmt.Errorf("%s: %w", w.name, err)
	}
	if o.memStats {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		run.mallocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		run.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
	}
	run.res = res
	run.setup = wall - res.Elapsed
	return run, nil
}

func blockRatio(r facs.MetropolisResult) float64 {
	return float64(r.Requested-r.Committed) / float64(r.Requested)
}

func handoffSuccess(r facs.MetropolisResult) float64 {
	return 1 - float64(r.HandoffDropped)/float64(r.Handoffs)
}

func hashHex(h uint64) string { return fmt.Sprintf("%#016x", h) }

// runMetroWorkload measures an in-process workload. With tracing off it
// times repeated RunMetropolis calls for the budget, then runs the
// output checks in calls of their own so they never load the timed
// ones. With tracing on it makes an untraced reference call, a traced
// call and a heap-measuring call, all of which must agree on the
// DecisionHash.
func runMetroWorkload(w metroWorkload, o options) (*report, error) {
	if o.trace {
		return traceMetro(w, o)
	}
	rep := newReport()
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()

	// Set-up samples: calls stopped before the first wave, each
	// building its controller cold, for at most a quarter of the budget.
	var setups []float64
	var ctrl facs.Controller
	for len(setups) < 41 && (len(setups) == 0 || time.Since(start) < budget/4) {
		r, err := runMetro(w, o.seed, metroOpts{setupOnly: true})
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		ctrl = r.ctrl
	}

	// Timed calls reuse the last controller built, as one process
	// deciding many days would: at least three for a median, more
	// while the next one is expected to fit in the budget.
	var runs []metroRun
	var last time.Duration
	for len(runs) < 3 || time.Since(start)+last <= budget {
		t0 := time.Now()
		r, err := runMetro(w, o.seed, metroOpts{reuse: ctrl})
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		runs = append(runs, r)
	}

	var dps, cpu []float64
	var hashList []string
	sameHash := true
	for _, r := range runs {
		dps = append(dps, r.res.DecisionsPerSec())
		cpu = append(cpu, float64(r.loopCPU.Nanoseconds())/float64(r.res.Decisions()))
		sameHash = sameHash && r.res.DecisionHash == runs[0].res.DecisionHash
		hashList = append(hashList, hashHex(r.res.DecisionHash))
		rep.attempted += r.res.Decisions()
	}
	first := runs[0].res
	rep.check("decision_hash_equal_across_repeats", sameHash)
	rep.check("new_calls_blocked", first.Requested > first.Committed)
	rep.values["setup_s"] = median(setups)
	rep.values["decisions_per_sec"] = median(dps)
	rep.values["cpu_ns_per_decision"] = median(cpu)
	rep.values["new_block_ratio"] = blockRatio(first)
	rep.values["handoff_success_ratio"] = handoffSuccess(first)
	rep.values["ok_ratio"] = 1

	if w.layer == "facs" {
		if err := checkCompiledAgainstExact(w, o.seed, ctrl, first.DecisionHash, rep); err != nil {
			return nil, err
		}
	}
	rep.info["decision_hashes"] = hashList
	rep.info["repeats"] = map[string][]float64{"decisions_per_sec": dps, "cpu_ns_per_decision": cpu}
	rep.info["setup_samples"] = len(setups)
	rep.info["deployment"] = deploymentInfo(w, o.seed, first)
	return rep, nil
}

// checkCompiledAgainstExact re-decides a hashed sample of the compiled
// controller's decisions with the exact FACS: the guard-band contract
// says every one must agree. The wrapped run must also reproduce the
// timed runs' DecisionHash.
func checkCompiledAgainstExact(w metroWorkload, seed int64, ctrl facs.Controller, want uint64, rep *report) error {
	exact, err := facs.NewSystem()
	if err != nil {
		return err
	}
	sample := &exactSample{exact: exact, every: 16}
	r, err := runMetro(w, seed, metroOpts{reuse: ctrl, hook: sample})
	if err != nil {
		return err
	}
	if sample.err != nil {
		return fmt.Errorf("exact re-decide: %w", sample.err)
	}
	rep.check("compiled_agrees_with_exact_sample", sample.checked > 0 && sample.disagreed == 0)
	rep.check("sampled_run_hash_equal", r.res.DecisionHash == want)
	rep.info["exact_sample"] = map[string]int{"every": int(sample.every), "checked": sample.checked, "disagreed": sample.disagreed}
	return nil
}

func deploymentInfo(w metroWorkload, seed int64, r facs.MetropolisResult) map[string]any {
	cfg := w.config(seed)
	return map[string]any{
		"controller": r.ControllerName, "cells": r.Cells, "capacity_bu": r.CapacityBU,
		"rings": cfg.Rings, "target_calls": cfg.TargetCalls, "waves": r.Waves,
		"requested": r.Requested, "committed": r.Committed,
		"handoffs": r.Handoffs, "handoff_dropped": r.HandoffDropped,
		"decisions": r.Decisions(), "peak_concurrent": r.PeakConcurrent,
	}
}

// traceMetro is the traced in-process run.
func traceMetro(w metroWorkload, o options) (*report, error) {
	rep := newReport()
	ref, err := runMetro(w, o.seed, metroOpts{memStats: true})
	if err != nil {
		return nil, err
	}
	decisions := ref.res.Decisions()
	// Room for one span per decision call: chunked arrivals plus one
	// single-request call per handoff.
	tr := newTracer(decisions/6 + 1024)
	rootID := tr.add(span{Name: "wave-loop"})
	hook := &controllerSpans{t: tr, parent: rootID}
	onCtrl := func(c facs.Controller) {
		if cs, ok := c.(interface{ Stats() (int64, int64) }); ok {
			hook.stats = cs.Stats
		}
	}
	traced, err := runMetro(w, o.seed, metroOpts{reuse: ref.ctrl, hook: hook, onCtrl: onCtrl})
	if err != nil {
		return nil, err
	}
	// The wave loop ended just before RunMetropolis returned; Elapsed
	// places its start.
	end := tr.now()
	root := &tr.spans[rootID-1]
	root.Start, root.End, root.Requests = end-int64(traced.res.Elapsed), end, int32(traced.res.Decisions())
	controllerSpans := tr.spans[rootID:]
	mem, err := runMetro(w, o.seed, metroOpts{reuse: ref.ctrl, measureMem: true})
	if err != nil {
		return nil, err
	}
	rep.attempted = decisions + traced.res.Decisions() + mem.res.Decisions()
	rep.check("traced_hash_equals_untraced", traced.res.DecisionHash == ref.res.DecisionHash)
	rep.check("mem_run_hash_equals_untraced", mem.res.DecisionHash == ref.res.DecisionHash)

	children := make([]interval, len(controllerSpans))
	var ctrlNS, ctrlReqs, fastNS, fastReqs, fastCount, exactCount int64
	for i, s := range controllerSpans {
		children[i] = interval{s.Start, s.End}
		ctrlNS += s.dur()
		ctrlReqs += int64(s.Requests)
		fastCount += int64(s.Fast)
		exactCount += int64(s.Exact)
		if s.Exact == 0 {
			fastNS += s.dur()
			fastReqs += int64(s.Requests)
		}
	}
	d := float64(traced.res.Decisions())
	rep.values["metro.self_ns_per_decision"] = float64(selfTime(interval{root.Start, root.End}, children)) / d
	perReq := float64(ctrlNS) / float64(ctrlReqs)
	switch w.layer {
	case "cac":
		rep.values["cac.decide_ns_per_request"] = perReq
		rep.values["cac.requests_per_call"] = float64(ctrlReqs) / float64(len(controllerSpans))
	case "facs":
		rep.values["facs.compile_s"] = ref.build.Seconds()
		rep.values["facs.decide_ns_per_request"] = perReq
		if hook.stats != nil && fastCount+exactCount > 0 {
			fastRate := float64(fastNS) / float64(fastReqs)
			rep.values["facs.exact_ratio"] = float64(exactCount) / float64(fastCount+exactCount)
			rep.values["facs.fast_ns_per_request"] = fastRate
			if exactCount > 0 {
				rep.values["facs.exact_ns_per_fallback"] = (float64(ctrlNS) - fastRate*float64(fastCount)) / float64(exactCount)
			}
			rep.check("exact_fallbacks_seen", exactCount > 0)
		}
	}
	rep.values["runtime.alloc_bytes_per_decision"] = float64(ref.mallocBytes) / float64(decisions)
	rep.values["runtime.gc_cycles"] = float64(ref.gcCycles)
	rep.values["runtime.heap_bytes_per_call"] = mem.res.BytesPerCall
	rep.values["trace.overhead_ratio"] = traced.res.Elapsed.Seconds()/ref.res.Elapsed.Seconds() - 1
	path, err := tr.write(o.out, "spans-"+w.name+".tsv")
	if err != nil {
		return nil, err
	}
	rep.info["spans_file"] = path
	rep.info["spans"] = len(tr.spans)
	rep.info["decision_hashes"] = map[string]string{
		"untraced": hashHex(ref.res.DecisionHash), "traced": hashHex(traced.res.DecisionHash),
		"measure_mem": hashHex(mem.res.DecisionHash),
	}
	rep.info["deployment"] = deploymentInfo(w, o.seed, ref.res)
	return rep, nil
}
