// Command facsbench is the repository's benchmark. It drives three
// workloads through the program's two user entry points — the
// in-process facs.RunMetropolis and the facs-serve binary over TCP
// NDJSON — checks their outputs, and prints one JSON result line.
//
//	facsbench --workload metro-guard-hot --seed 1 --seconds 20 --trace 0 \
//	    --serve-bin PATH --out DIR
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run yields the per-layer metrics and
// writes its spans under --out. run.sh builds the binaries and supplies
// --serve-bin and --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of either entry point sees; every
// workload reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"decisions_per_sec", "1/s"},
	{"cpu_ns_per_decision", "ns"},
	{"new_block_ratio", "ratio"},
	{"handoff_success_ratio", "ratio"},
	{"ok_ratio", "ratio"},
}

// perLayer are the traced run's metrics, named after the layer they
// time. A workload that does not cross a layer reports it as 0 and
// lists it under not_measured.
var perLayer = []metricDef{
	{"metro.self_ns_per_decision", "ns"},
	{"cac.decide_ns_per_request", "ns"},
	{"cac.requests_per_call", "count"},
	{"facs.compile_s", "s"},
	{"facs.decide_ns_per_request", "ns"},
	{"facs.fast_ns_per_request", "ns"},
	{"facs.exact_ns_per_fallback", "ns"},
	{"facs.exact_ratio", "ratio"},
	{"runtime.alloc_bytes_per_decision", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_bytes_per_call", "B"},
	{"trace.overhead_ratio", "ratio"},
	{"wire.overhead_us", "us"},
	{"serve.latency_p50_us", "us"},
	{"serve.latency_p99_us", "us"},
	{"serve.requests_per_batch", "count"},
	{"shard.tick_stall_ms", "ms"},
	{"shard.ghost_rows_per_tick", "count"},
	{"shard.handoff_commit_ratio", "ratio"},
	{"scc.fallbacks_per_decision", "ratio"},
	{"scc.rebuilds", "count"},
	{"scc.active_calls", "count"},
	{"gen.late_ms", "ms"},
	{"low.p50_ms", "ms"},
	{"low.p99_ms", "ms"},
	{"high.p50_ms", "ms"},
	{"high.p99_ms", "ms"},
	{"slo_rate", "1/s"},
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	out      string
}

// report is what a workload hands back: measured metric values by
// name, counts of attempted and failed operations, the output checks
// it ran, and free-form facts for the info line.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	checks    map[string]bool
	info      map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, checks: map[string]bool{}, info: map[string]any{}}
}

// check records one output check.
func (r *report) check(name string, ok bool) { r.checks[name] = ok }

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"metro-guard-hot": func(o options) (*report, error) { return runMetroWorkload(guardHot, o) },
	"metro-facs-40bu": func(o options) (*report, error) { return runMetroWorkload(facs40BU, o) },
	"tcp-scc-sharded": runServed,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", "", "prebuilt facs-serve binary (tcp workloads)")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span dumps")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "facsbench: bad arguments: workload %q seconds %d trace %d\n", o.workload, o.seconds, trace)
		os.Exit(2)
	}
	start := time.Now()
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "facsbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, notMeasured := rep.result(defs)
	rep.info["workload"] = o.workload
	rep.info["seed"] = o.seed
	rep.info["seconds"] = o.seconds
	rep.info["trace"] = o.trace
	rep.info["nproc"] = runtime.NumCPU()
	rep.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.info["go_version"] = runtime.Version()
	rep.info["checks"] = rep.checks
	rep.info["not_measured"] = notMeasured
	rep.info["wall_s"] = time.Since(start).Seconds()
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": rep.info}); err != nil {
		fmt.Fprintln(os.Stderr, "facsbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(line); err != nil {
		fmt.Fprintln(os.Stderr, "facsbench:", err)
		os.Exit(1)
	}
}

// result assembles the final line for defs. A metric the workload did
// not measure is reported as 0 and named in notMeasured; the run is
// correct only when every output check passed.
func (r *report) result(defs []metricDef) (resultLine, []string) {
	line := resultLine{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if line.Attempted < 1 {
		line.Attempted = 1
		line.Correct = false
	}
	for _, ok := range r.checks {
		line.Correct = line.Correct && ok
	}
	notMeasured := []string{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, ok = 0, false // a ratio with nothing to divide by
		}
		if !ok {
			notMeasured = append(notMeasured, d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	sort.Strings(notMeasured)
	return line, notMeasured
}
