// Command atpgbench is the end-to-end benchmark of the ATPG flow and of
// the atpgd job service. One invocation runs one workload for a fixed
// time, checks every operation's outputs, and prints one JSON result
// line: the end-to-end metrics with tracing off, or the per-layer
// metrics with --trace 1. README.md describes the workloads and metrics.
//
//	bash atpgbench/run.sh --workload paper_tran --seed 1 --seconds 25 --trace 0
//
// "atpgbench spread" reads result lines on standard input and prints
// each metric's median and quartile spread across them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run, in this order.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"faults_per_s", "1/s"},
	{"cpu_s_per_fault", "s"},
	{"peak_rss_mb", "MB"},
	{"coverage_pct", "%"},
	{"compact_tests", "count"},
}

// perLayerMetrics are printed by every traced run. A metric of a layer
// the workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"mna.factorizations_per_fault", "count"},
	{"mna.solves_per_fault", "count"},
	{"mna.factor_reuses_per_fault", "count"},
	{"device.stamps_per_fault", "count"},
	{"mna.cpu_share", "ratio"},
	{"device.cpu_share", "ratio"},
	{"sim.transient_runs_per_fault", "count"},
	{"sim.transient_s_per_fault", "s"},
	{"sim.op_runs_per_fault", "count"},
	{"sim.op_s_per_fault", "s"},
	{"sim.newton_iters_per_run", "count"},
	{"sim.base_hit_ratio", "ratio"},
	{"sim.cpu_share", "ratio"},
	{"core.faulty_runs_per_fault", "count"},
	{"core.nominal_runs_per_fault", "count"},
	{"core.retained_eval_ratio", "ratio"},
	{"core.box_build_s", "s"},
	{"core.generate_s", "s"},
	{"core.compact_s", "s"},
	{"core.coverage_s", "s"},
	{"core.optimize_p50_s", "s"},
	{"core.impact_loop_p50_s", "s"},
	{"core.cpu_share", "ratio"},
	{"opt.cpu_share", "ratio"},
	{"engine.cache_miss_ratio", "ratio"},
	{"engine.fault_e2e_p50_s", "s"},
	{"engine.parallel_efficiency", "ratio"},
	{"engine.cpu_share", "ratio"},
	{"server.submit_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.service_s", "s"},
	{"server.result_fetch_s", "s"},
	{"server.result_bytes", "bytes"},
	{"server.cpu_share", "ratio"},
	{"dist.shard_wait_s", "s"},
	{"dist.shard_service_s", "s"},
	{"dist.merge_tail_s", "s"},
	{"dist.work_ratio", "ratio"},
	{"dist.requeues_per_job", "count"},
	{"dist.http_requests_per_job", "count"},
	{"dist.wire_bytes_per_job", "bytes"},
	{"obs.journal_bytes_per_fault", "bytes"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"obs.cpu_share", "ratio"},
	{"runtime.alloc_mb_per_fault", "MB"},
	{"runtime.gc_cycles_per_fault", "count"},
	{"runtime.cpu_share", "ratio"},
}

// benchEnv is what every workload receives.
type benchEnv struct {
	// seconds is how long the run issues new operations.
	seconds time.Duration
	// trace selects the per-layer run.
	trace bool
	// dir is a working directory inside the checkout for job data and
	// profiles; it is removed when the run ends.
	dir string
	// nproc bounds compute threads: engine workers × concurrently
	// running sessions never exceed it.
	nproc int
}

// runStats is what one workload run measured.
type runStats struct {
	attempted int
	failed    int
	// unexpected counts failed operations other than the journal audit
	// that fails on every distributed job (see README.md); any makes
	// the run incorrect.
	unexpected int
	setup      []float64 // seconds, one per set-up
	ops        []float64 // seconds, one per timed operation
	faults     int       // faults completed by timed operations
	wall       float64   // seconds the timed operations spanned
	cpu        float64   // process CPU seconds inside the timed operations
	coverage   float64   // percent, identical for every operation
	tests      int       // compacted tests, identical for every operation
	layers     map[string]float64
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(context.Context, *benchEnv) (*runStats, error){
	"paper_tran": paperTran,
	"paper_dc":   paperDC,
	"atpgd_dist": atpgdDist,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "atpgbench spread:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: paper_tran, paper_dc or atpgd_dist")
	seed := flag.Int64("seed", 1, "run seed; the workloads' inputs are fixed (see README.md), so it only labels the run")
	seconds := flag.Float64("seconds", 25, "how long the run issues new operations")
	trace := flag.Int("trace", 0, "1: per-layer run instead of the end-to-end one")
	flag.Parse()

	res, err := execute(*name, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atpgbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atpgbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func execute(name string, seed int64, seconds float64, trace int) (*result, error) {
	wl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 0 || trace < 0 || trace > 1 {
		return nil, errors.New("--seconds must be >= 0 and --trace 0 or 1")
	}
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "atpgbench: workload %s, seed %d, %gs, trace %d\n", name, seed, seconds, trace)
	env := &benchEnv{
		seconds: time.Duration(seconds * float64(time.Second)),
		trace:   trace == 1,
		dir:     dir,
		nproc:   runtime.NumCPU(),
	}
	rs, err := wl(context.Background(), env)
	if err != nil {
		return nil, err
	}
	if rs.faults == 0 || len(rs.ops) == 0 || len(rs.setup) == 0 {
		return nil, fmt.Errorf("no operation completed (%d attempted, %d failed)", rs.attempted, rs.failed)
	}
	res := &result{
		Correct:   rs.unexpected == 0,
		Attempted: rs.attempted,
		Failed:    rs.failed,
		Metrics:   make(map[string]metric),
	}
	if env.trace {
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{rs.layers[m.name], m.unit}
		}
		return res, nil
	}
	values := map[string]float64{
		"setup_s":         median(rs.setup),
		"op_p50_s":        median(rs.ops),
		"faults_per_s":    float64(rs.faults) / rs.wall,
		"cpu_s_per_fault": rs.cpu / float64(rs.faults),
		"peak_rss_mb":     peakRSSMB(),
		"coverage_pct":    rs.coverage,
		"compact_tests":   float64(rs.tests),
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return res, nil
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "atpgbench: "+format+"\n", args...)
}
