package main

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"tofumd/internal/core"
	"tofumd/internal/md/sim"
	"tofumd/internal/md/thermo"
	"tofumd/internal/trace"
)

// minRepeats keeps every run's medians meaningful however short --seconds is.
const minRepeats = 2

// repeat is one measured MD run: core.Start, every planned Step, Finish.
type repeat struct {
	traced    bool
	setup     time.Duration
	latency   time.Duration
	steps     []time.Duration
	rebuild   []bool
	rebuilds  int
	allocB    uint64
	atoms     int
	res       *core.RunResult
	energyEnd float64
	peEnd     float64
}

// energies returns the total and potential energy per atom of the current
// state. The kinetic part is summed rank by rank in the allreduce's order,
// so the potential share is as reproducible as the total.
func energies(s *sim.Simulation) (total, pot float64) {
	total = s.TotalEnergyPerAtom()
	var ke2 float64
	n := 0
	for _, r := range s.Ranks() {
		ke2 += thermo.Gather(r.Atoms, s.Cfg.Potential.Mass(), 0, 0).KE2
		n += r.Atoms.NLocal
	}
	if n == 0 {
		return total, math.NaN()
	}
	return total, total - 0.5*s.U.Mvv2e*ke2/float64(n)
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// allocSample reads the cumulative heap allocation without stopping the
// world.
type allocSample []rtmetrics.Sample

func newAllocSample() allocSample {
	return allocSample{{Name: "/gc/heap/allocs:bytes"}}
}

func (a allocSample) bytes() uint64 {
	rtmetrics.Read(a)
	if a[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return a[0].Value.Uint64()
}

// runRepeat executes one repeat, recording spans when tr is non-nil.
// The repeat's NVE total-energy drift must stay within drift.
func runRepeat(spec core.RunSpec, drift float64, tr *tracer, op int, heap *liveHeap, allocs allocSample) (*repeat, *core.Running, checks, error) {
	rp := &repeat{traced: tr != nil}
	root := tr.begin("bench", "repeat", 0, op)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("core", "core.Start", root, op)
	run, err := core.Start(spec)
	tr.end(sp)
	rp.setup = time.Since(t0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core.Start %s: %w", spec.Workload.Name, err)
	}
	s := run.Sim()
	e0, _ := energies(s)
	n0 := s.TotalAtoms()
	a0 := allocs.bytes()
	for run.StepsDone() < run.StepsPlanned() {
		before := s.Rebuilds
		sp := tr.begin("md/sim", "Running.Step", root, op)
		ts := time.Now()
		run.Step()
		d := time.Since(ts)
		tr.end(sp)
		rp.steps = append(rp.steps, d)
		rp.rebuild = append(rp.rebuild, s.Rebuilds != before)
		if s.Rebuilds != before {
			rp.rebuilds++
		}
		heap.observe()
	}
	rp.allocB = allocs.bytes() - a0
	rp.energyEnd, rp.peEnd = energies(s)
	n1 := s.TotalAtoms()
	sp = tr.begin("core", "Running.Finish", root, op)
	rp.res = run.Finish()
	tr.end(sp)
	rp.atoms = rp.res.Atoms
	rp.latency = time.Since(t0)

	var c checks
	c.need(n0 == n1 && n1 == rp.res.Atoms, "atom count not conserved: %d -> %d (result %d)", n0, n1, rp.res.Atoms)
	c.need(finite(e0, rp.energyEnd, rp.peEnd), "non-finite energy: start %v end %v pe %v", e0, rp.energyEnd, rp.peEnd)
	c.need(rp.res.Steps == run.StepsPlanned(), "ran %d of %d steps", rp.res.Steps, run.StepsPlanned())
	d := math.Abs(rp.energyEnd-e0) / math.Abs(e0)
	c.need(d <= drift, "NVE energy drift %.3g exceeds %.3g (%.10g -> %.10g)", d, drift, e0, rp.energyEnd)
	return rp, run, c, nil
}

// stepMetrics derives the md/sim step-latency metrics from the repeats'
// Running.Step timings, classifying a step as a rebuild when it moved
// Simulation.Rebuilds, and the virtual stage breakdown from the first
// repeat (every repeat's is bit-identical).
func stepMetrics(m map[string]float64, reps []*repeat) {
	var all, fwd, reb []float64
	for _, rp := range reps {
		for i, d := range rp.steps {
			ms := d.Seconds() * 1e3
			all = append(all, ms)
			if rp.rebuild[i] {
				reb = append(reb, ms)
			} else {
				fwd = append(fwd, ms)
			}
		}
	}
	m["sim.forward_step_ms_p50"] = median(fwd)
	m["sim.rebuild_step_ms_p50"] = median(reb)
	m["sim.step_ms_p90"] = quantile(all, 0.90)
	m["sim.rebuilds"] = float64(reps[0].rebuilds)
	bd := reps[0].res.Breakdown
	m["virtual.pair_s"] = bd.Get(trace.Pair)
	m["virtual.neigh_s"] = bd.Get(trace.Neigh)
	m["virtual.comm_s"] = bd.Get(trace.Comm)
	m["virtual.modify_s"] = bd.Get(trace.Modify)
	m["virtual.other_s"] = bd.Get(trace.Other)
}

// sameBits reports bit equality, the contract for virtual results.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// runMD measures an MD workload: a direct core.Run of the spec (the
// reference for the virtual results, and the warm-up), then repeats until
// --seconds have passed. A traced run alternates untraced and traced
// repeats, so trace.overhead_frac compares the two within one process, and
// then probes every layer on a final repeat's state.
func runMD(cfg config, w mdWorkload, tr *tracer, chk *checker) (outcome, error) {
	out := outcome{metrics: map[string]float64{}, details: map[string]any{}}
	spec := w.spec

	direct, err := core.Run(spec)
	if err != nil {
		return out, fmt.Errorf("core.Run %s: %w", spec.Workload.Name, err)
	}
	var dc checks
	dc.need(finite(direct.Elapsed, direct.PerfPerDay) && direct.PerfPerDay > 0, "direct run has no performance: %v", direct.PerfPerDay)
	chk.op("direct core.Run", dc)

	runtime.GC()
	allocs := newAllocSample()
	heap := newLiveHeap()
	gw := startGCWindow()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var reps []*repeat
	for len(reps) < minRepeats || time.Now().Before(deadline) {
		op := len(reps) + 1
		var rtr *tracer
		if tr != nil && op%2 == 0 {
			rtr = tr
		}
		rp, run, c, err := runRepeat(spec, w.drift, rtr, op, heap, allocs)
		if err != nil {
			return out, err
		}
		run.Close()
		if cfg.corrupt == "digest" && op == 2 {
			rp.res.Elapsed = math.Nextafter(rp.res.Elapsed, math.Inf(1))
		}
		c.need(sameBits(rp.res.Elapsed, direct.Elapsed) && sameBits(rp.res.PerfPerDay, direct.PerfPerDay),
			"virtual result differs from direct core.Run: elapsed %v vs %v, perf %v vs %v",
			rp.res.Elapsed, direct.Elapsed, rp.res.PerfPerDay, direct.PerfPerDay)
		if len(reps) > 0 {
			first := reps[0]
			c.need(sameBits(rp.res.Elapsed, first.res.Elapsed) && sameBits(rp.peEnd, first.peEnd),
				"virtual digest differs from repeat 1: elapsed %v vs %v, final PE/atom %v vs %v",
				rp.res.Elapsed, first.res.Elapsed, rp.peEnd, first.peEnd)
		}
		chk.op(fmt.Sprintf("repeat %d", op), c)
		reps = append(reps, rp)
	}
	gw.stop()

	var setups, lats, rates, stepMs []float64
	var tracedSec, untracedSec float64
	var tracedSteps, untracedSteps, totalSteps int
	var allocB uint64
	for _, rp := range reps {
		setups = append(setups, rp.setup.Seconds())
		lats = append(lats, rp.latency.Seconds())
		allocB += rp.allocB
		var stepSec float64
		for _, d := range rp.steps {
			stepSec += d.Seconds()
			stepMs = append(stepMs, d.Seconds()*1e3)
			if rp.traced {
				tracedSec += d.Seconds()
				tracedSteps++
			} else {
				untracedSec += d.Seconds()
				untracedSteps++
			}
		}
		totalSteps += len(rp.steps)
		rates = append(rates, float64(rp.atoms*len(rp.steps))/stepSec)
	}
	m := out.metrics
	m["atom_steps_per_s"] = median(rates)
	m["setup_s"] = median(setups)
	m["peak_heap_mb"] = heap.peakMiB()
	m["virtual_perf_per_day"] = reps[0].res.PerfPerDay
	m["jobs_per_s"] = float64(len(reps)) / sum(lats)
	m["job_latency_p50_s"] = quantile(lats, 0.50)
	m["job_latency_p75_s"] = quantile(lats, 0.75)

	stepMetrics(m, reps)
	m["go.alloc_mb_per_step"] = float64(allocB) / (1 << 20) / float64(totalSteps)
	m["go.gc_cycles"] = gw.cycles()
	m["go.gc_pause_ms"] = gw.pauseMs()
	for _, name := range []string{"jobfarm.queue_wait_s_p50", "jobfarm.segments", "jobfarm.preemptions", "jobfarm.shed_429", "jobfarm.retries"} {
		m[name] = 0 // no job service in an MD workload
	}
	if tracedSteps > 0 && untracedSteps > 0 {
		m["trace.overhead_frac"] = (tracedSec/float64(tracedSteps))/(untracedSec/float64(untracedSteps)) - 1
	}

	unit := "tau/day"
	if spec.Workload.Kind == core.EAM {
		unit = "us/day"
	}
	out.details["samples"] = map[string][]float64{"setup_s": setups, "repeat_latency_s": lats, "repeat_atom_steps_per_s": rates, "step_ms": stepMs}
	out.details["repeats"] = len(reps)
	out.details["steps_per_repeat"] = len(reps[0].steps)
	out.details["atoms"] = reps[0].atoms
	out.details["ranks"] = reps[0].res.Ranks
	out.details["latency_samples"] = len(lats)
	out.details["virtual_perf_unit"] = unit
	out.details["virtual_elapsed_s"] = reps[0].res.Elapsed
	out.details["final_pe_per_atom"] = reps[0].peEnd

	if tr != nil {
		mpiSpec := spec
		mpiSpec.Variant = sim.Ref()
		if _, err := probeWorkload(cfg, tr, chk, out, w.drift, spec, spec, mpiSpec, len(reps)+1); err != nil {
			return out, err
		}
	}
	return out, nil
}
