package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func defsOf(defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json, the program's metric
// tables and the layer map in layers.json in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	var b struct {
		benchmarkFile
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
	}
	loadJSON(t, "../BENCHMARK.json", &b)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	e2e, pl := defsOf(endToEnd), defsOf(perLayer)
	if len(b.EndToEnd) != len(e2e) || len(b.PerLayer) != len(pl) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, program %d+%d", len(b.EndToEnd), len(b.PerLayer), len(e2e), len(pl))
	}
	var maxBound float64
	for _, m := range b.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q, program %q", m.Name, m.Unit, e2e[m.Name])
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, maxBound)
		}
	}
	for _, m := range b.PerLayer {
		if pl[m.Name] != m.Unit {
			t.Errorf("per-layer %s: unit %q, program %q", m.Name, m.Unit, pl[m.Name])
		}
	}
	var lm struct {
		Layers map[string]struct {
			Module     string   `json:"module"`
			Moves      []string `json:"moves"`
			On         []string `json:"on"`
			NoChangeOn []string `json:"no_change_on"`
		} `json:"layers"`
	}
	loadJSON(t, "layers.json", &lm)
	for name := range pl {
		row, ok := lm.Layers[name]
		if !ok || row.Module == "" {
			t.Errorf("layers.json has no module for %s", name)
		}
		for _, m := range row.Moves {
			if _, ok := e2e[m]; !ok {
				t.Errorf("layers.json: %s moves unknown end-to-end metric %q", name, m)
			}
		}
		for _, w := range append(row.On, row.NoChangeOn...) {
			if !knownWorkload(w) {
				t.Errorf("layers.json: %s names unknown workload %q", name, w)
			}
		}
	}
	if len(lm.Layers) != len(pl) {
		t.Errorf("layers.json maps %d metrics, want %d", len(lm.Layers), len(pl))
	}
}

// layersWanted are the layers whose spans a traced run must record.
var layersWanted = []string{"core", "md/sim", "md/potential", "md/neighbor", "md/restart", "tofu", "des", "utofu", "mpi", "threadpool"}

// TestSmoke runs every workload at tiny size, untraced and traced: every
// named metric comes out with its unit, every operation passes, and the
// traced run records spans from every layer.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 0.2, traced: traced, root: t.TempDir(), tiny: true}
			res, info, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if exitCode(res) != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w, traced, res.Failed, res.Attempted, info["failures"])
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
			}
			report := info["report"].(map[string]metricJSON)
			if _, ok := report["ops_failed"]; !ok {
				t.Errorf("%s: report lacks ops_failed", w)
			}
			fp := info["fingerprint"].(fingerprint)
			if fp.GOMAXPROCS < 1 || fp.GoVersion == "" || fp.GOARCH == "" || fp.Commit == "" || fp.CPUModel == "" {
				t.Errorf("%s: incomplete fingerprint %+v", w, fp)
			}
			if !traced {
				continue
			}
			layers := info["details"].(map[string]any)["span_layers"].(map[string]int)
			want := layersWanted
			if w == wTofud {
				want = append(want, "jobfarm")
			}
			var missing []string
			for _, l := range want {
				if layers[l] == 0 {
					missing = append(missing, l)
				}
			}
			sort.Strings(missing)
			if len(missing) > 0 {
				t.Errorf("%s: traced run recorded no spans from %v (got %v)", w, missing, layers)
			}
			if _, err := os.Stat(info["details"].(map[string]any)["trace_file"].(string)); err != nil {
				t.Errorf("%s: trace file: %v", w, err)
			}
		}
	}
}

// TestCorruptedResultsFail proves the gate: a repeat whose virtual digest
// is falsified, and a job forced out of done, each count as a failed
// operation and make the run exit non-zero.
func TestCorruptedResultsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, tc := range []struct{ workload, corrupt string }{
		{wLJ65, "digest"},
		{wTofud, "job"},
	} {
		cfg := config{workload: tc.workload, seed: 1, seconds: 0.2, root: t.TempDir(), tiny: true, corrupt: tc.corrupt}
		res, info, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.corrupt, err)
		}
		if res.Failed < 1 || res.Correct || exitCode(res) == 0 {
			t.Errorf("corrupt %s on %s: failed=%d correct=%v exit=%d", tc.corrupt, tc.workload, res.Failed, res.Correct, exitCode(res))
		}
		if fails, _ := info["failures"].([]string); len(fails) == 0 {
			t.Errorf("corrupt %s: no failure reported", tc.corrupt)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wLJ65, "--trace", "2"},
		{"--workload", wLJ65, "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := runMain(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}
