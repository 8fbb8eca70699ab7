// Command perfbench is the repository's host-clock benchmark. It drives
// tofumd through its public run APIs from outside the code it measures:
// MD workloads through core.Start / Running.Step / Finish, and the job
// service through jobfarm.New + Farm.Handler on a loopback HTTP listener.
//
// Usage (from the repository root, normally through perfbench/run.py):
//
//	perfbench --workload lj-65k-12n --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) records the benchmark's own spans around every layer call,
// times each layer on state captured from the workload, reports the
// per-layer metrics and writes the spans as Chrome trace JSON under
// .bench_build/perfbench/. Every operation is checked; the last line of
// standard output is the JSON result, and any failed check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

func main() { os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// root is the repository checkout (the working directory when run);
	// outputs go under root/.bench_build.
	root string
	// tiny shrinks every workload to smoke-test size.
	tiny bool
	// corrupt deliberately falsifies one result ("digest": an MD repeat's
	// virtual elapsed time; "job": a finished job's state) so tests can
	// prove the gate catches it. Never set from the command line.
	corrupt string
}

func (c config) outDir() string { return filepath.Join(c.root, ".bench_build", "perfbench") }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"atom_steps_per_s", "atom-steps/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"virtual_perf_per_day", "tau-or-us/day"},
	{"jobs_per_s", "jobs/s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p75_s", "s"},
}

// perLayer are the metrics a traced run reports on every workload.
var perLayer = []metricDef{
	{"sim.forward_step_ms_p50", "ms"},
	{"sim.rebuild_step_ms_p50", "ms"},
	{"sim.step_ms_p90", "ms"},
	{"sim.rebuilds", "count"},
	{"virtual.pair_s", "s"},
	{"virtual.neigh_s", "s"},
	{"virtual.comm_s", "s"},
	{"virtual.modify_s", "s"},
	{"virtual.other_s", "s"},
	{"potential.compute_ms", "ms"},
	{"potential.pairs_per_s", "1/s"},
	{"potential.spline_eval_ns", "ns"},
	{"neighbor.build_ms", "ms"},
	{"neighbor.candidates", "count"},
	{"neighbor.pairs", "count"},
	{"neighbor.useful_ratio", "ratio"},
	{"neighbor.alloc_mb", "MiB"},
	{"tofu.round_ms", "ms"},
	{"tofu.transfers_per_s", "1/s"},
	{"tofu.allocs_per_transfer", "count"},
	{"des.events_per_s", "1/s"},
	{"utofu.round_ms", "ms"},
	{"mpi.round_ms", "ms"},
	{"threadpool.foreach_us", "us"},
	{"restart.capture_ms", "ms"},
	{"restart.write_ms", "ms"},
	{"restart.read_ms", "ms"},
	{"restart.bytes", "bytes"},
	{"jobfarm.queue_wait_s_p50", "s"},
	{"jobfarm.segments", "count"},
	{"jobfarm.preemptions", "count"},
	{"jobfarm.shed_429", "count"},
	{"jobfarm.retries", "count"},
	{"go.alloc_mb_per_step", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// checker counts checked operations. An operation fails when any of its
// checks fails; the run is correct only when none failed.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

// checks collects the problems of one operation.
type checks []string

func (c *checks) need(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Sprintf(format, args...))
	}
}

// op records one operation with the problems its checks found.
func (k *checker) op(name string, problems checks) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.attempted++
	if len(problems) > 0 {
		k.failed++
		k.problems = append(k.problems, name+": "+strings.Join(problems, "; "))
	}
}

// outcome is what a workload run hands back: every metric it measured and
// free-form details for the report line.
type outcome struct {
	metrics map[string]float64
	details map[string]any
}

// result is the contract's final output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{root: "."}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d: want 0 or 1\n", trace)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds %g: must be positive\n", cfg.seconds)
		return 2
	}
	cfg.traced = trace == 1
	if !knownWorkload(cfg.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, info, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res)
}

// exitCode is 1 when any checked operation failed, 0 otherwise.
func exitCode(res result) int {
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// execute runs one invocation and assembles the contract result plus the
// report line that precedes it (fingerprint, every metric with its unit,
// ops and ops_failed, sample counts, failures).
func execute(cfg config) (result, map[string]any, error) {
	fp := hostFingerprint(cfg.root)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	chk := &checker{}
	out, err := runWorkload(cfg, tr, chk)
	if err != nil {
		return result{}, nil, err
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	var missing checks
	res := result{Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || !finite(v) {
			missing.need(false, "metric %s not measured (%v)", d.name, v)
			continue
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	chk.op("metrics", missing)
	if tr != nil {
		path := filepath.Join(cfg.outDir(), fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path, fp); err != nil {
			return result{}, nil, fmt.Errorf("write trace: %w", err)
		}
		out.details["trace_file"] = path
		out.details["span_layers"] = tr.layers()
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0
	report := map[string]metricJSON{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := out.metrics[d.name]; ok {
			report[d.name] = metricJSON{Value: v, Unit: d.unit}
		}
	}
	report["ops"] = metricJSON{Value: float64(chk.attempted), Unit: "count"}
	report["ops_failed"] = metricJSON{Value: float64(chk.failed), Unit: "count"}
	sort.Strings(chk.problems)
	info := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.traced,
		"fingerprint": fp,
		"report":      report,
		"details":     out.details,
		"failures":    chk.problems,
	}
	return res, info, nil
}
