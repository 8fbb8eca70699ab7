package main

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/jobfarm"
	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// Workload names.
const (
	wLJ65   = "lj-65k-12n"
	wEAM65  = "eam-65k-12n"
	wStrong = "lj-strong-36k"
	wTofud  = "tofud-mix"
)

func workloadNames() []string { return []string{wLJ65, wEAM65, wStrong, wTofud} }

func knownWorkload(name string) bool {
	for _, n := range workloadNames() {
		if n == name {
			return true
		}
	}
	return false
}

// mdWorkload is one MD workload: the RunSpec every repeat runs and the NVE
// total-energy drift bound its repeats must meet.
type mdWorkload struct {
	spec core.RunSpec
	// drift bounds the NVE total-energy drift of one repeat.
	drift float64
}

// NVE total-energy drift bounds per repeat: |E_end - E_start| / |E_start|
// per atom. The drift measured on the seed code was 1.6e-3 for LJ over 40
// steps (under the deck's "neigh_modify every 20 check no") and 1e-5 for
// EAM over 20 steps; the bounds are about 3x and 10x those.
const (
	driftLJ  = 5e-3
	driftEAM = 1e-4
)

// mdWorkloadFor resolves an MD workload. The specs set only the workload,
// tile, variant and step count, leaving every engine field of RunSpec at its
// zero value: runs use the serial event engine, as tofud's runner does.
func mdWorkloadFor(name string, tiny bool) (mdWorkload, bool) {
	node := func(x, y, z int) vec.I3 { return vec.I3{X: x, Y: y, Z: z} }
	spec := func(kind core.Kind, atoms int, full, tile vec.I3, steps int) core.RunSpec {
		return core.RunSpec{
			Workload:  core.Workload{Name: name, Kind: kind, Atoms: atoms, FullShape: full, Steps: steps},
			TileShape: tile,
			Variant:   sim.Opt(),
		}
	}
	switch name {
	case wLJ65:
		// 65,856 atoms on the 2x3x2-node (48-rank) tile, two reneighbors per
		// repeat.
		if tiny {
			return mdWorkload{spec(core.LJ, 4000, node(1, 2, 2), node(1, 2, 2), 20), driftLJ}, true
		}
		return mdWorkload{spec(core.LJ, 65536, node(2, 3, 2), node(2, 3, 2), 40), driftLJ}, true
	case wEAM65:
		// Same atoms and tile; four check-yes decisions per repeat.
		if tiny {
			return mdWorkload{spec(core.EAM, 2048, node(2, 2, 2), node(2, 2, 2), 20), driftEAM}, true
		}
		return mdWorkload{spec(core.EAM, 65536, node(2, 3, 2), node(2, 3, 2), 20), driftEAM}, true
	case wStrong:
		// The Fig. 13 / Table 3 end point: 4,194,304 atoms on 36,864 nodes,
		// about 28 atoms per rank, on the 4x6x4-node (384-rank) tile.
		atoms := core.StrongScalingAtoms(core.LJ)
		if tiny {
			return mdWorkload{spec(core.LJ, atoms, node(32, 36, 32), node(2, 2, 2), 20), driftLJ}, true
		}
		return mdWorkload{spec(core.LJ, atoms, node(32, 36, 32), node(4, 6, 4), 40), driftLJ}, true
	}
	return mdWorkload{}, false
}

// tofudJobs returns the two job specs of the tofud-mix workload: a
// best-effort LJ job on the MPI 3-stage ("ref") path and a priority EAM job
// on the optimized path. Both commit at every checkpoint interval, so each
// segment rebuilds the simulation from the previous capture.
func tofudJobs(tiny bool) (lj, eam jobfarm.Spec) {
	lj = jobfarm.Spec{Name: "lj-ref", Potential: "lj", Atoms: 2048, Nodes: "2x2x2", Steps: 40, Variant: "ref", CheckpointEvery: 20}
	eam = jobfarm.Spec{Name: "eam-opt", Potential: "eam", Atoms: 2048, Nodes: "2x2x2", Steps: 10, Variant: "opt", Priority: jobfarm.PriorityHigh, CheckpointEvery: 5}
	if tiny {
		lj.Atoms, eam.Atoms = 500, 864
	}
	return lj, eam
}

// jobRunSpec is the RunSpec the farm's MD runner builds for a job's first
// segment; the traced run steps it directly to probe the layers the job
// service exercises.
func jobRunSpec(sp jobfarm.Spec, steps int) (core.RunSpec, error) {
	if err := sp.Validate(); err != nil {
		return core.RunSpec{}, err
	}
	var variant sim.Variant
	for _, v := range sim.StepByStepVariants() {
		if v.Name == sp.Variant {
			variant = v
		}
	}
	if variant.Name == "" {
		return core.RunSpec{}, fmt.Errorf("job %s: unknown variant %q", sp.Name, sp.Variant)
	}
	shape := sp.Shape()
	return core.RunSpec{
		Workload:  core.Workload{Name: sp.Name, Kind: sp.Kind(), Atoms: sp.Atoms, FullShape: shape, Steps: steps},
		TileShape: shape,
		Variant:   variant,
	}, nil
}

// runWorkload dispatches one invocation.
func runWorkload(cfg config, tr *tracer, chk *checker) (outcome, error) {
	if cfg.workload == wTofud {
		return runTofud(cfg, tr, chk)
	}
	w, _ := mdWorkloadFor(cfg.workload, cfg.tiny)
	return runMD(cfg, w, tr, chk)
}
