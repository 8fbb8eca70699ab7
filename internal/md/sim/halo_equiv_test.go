package sim_test

// Equivalence suite for the internal/halo extraction: the MD engine's
// ghost-region plans and exchange timings must be bit-identical to the
// pre-refactor implementation. The pinned fingerprints below were captured
// on the monolithic internal/md/sim code (before the halo library existed)
// on the Fig. 6 configuration — a 2x2x2-node tile, the Table 2 LJ system at
// 16^3 cells, 20 steps — across the uTofu and MPI transports and fault
// injection on/off. Any
// drift in the decomposition, link-plan enumeration, resource balance,
// round execution or buffer management shows up here as a changed clock sum
// or position hash.
//
// The second group of pins was captured before the halo stages were folded
// into a single pass driver. They cover what that fold touches beyond the
// LJ pins: the EAM scalar passes, the remaining Fig. 12 variants, the
// EAM overlap, the non-direct forward under pool threading, and a
// small-system (6^3 cells) multi-shell case.

import (
	"math"
	"testing"

	"tofumd/internal/core"
	"tofumd/internal/faultinject"
	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// equivPin is one pre-refactor fingerprint: the sum of all rank clocks, a
// position hash over every local atom, and the slowest rank's elapsed time
// after 20 steps.
type equivPin struct {
	name    string
	kind    core.Kind
	cells   int // lattice cells per side; 0 = 16
	variant sim.Variant
	faults  string

	clockSum float64
	posHash  uint64
	elapsed  float64
}

func equivPins() []equivPin {
	const (
		optClockSum = 0.056059708534313656
		optPosHash  = 0xb4bcede66d6703
		optElapsed  = 0.0017530724999999974
	)
	overlap := sim.Opt()
	overlap.OverlapEAM = true
	noPrereg := sim.Opt()
	noPrereg.Preregistered = false
	return []equivPin{
		{"opt-serial", core.LJ, 0, sim.Opt(), "", optClockSum, optPosHash, optElapsed},
		// The MPI baseline and the uTofu 3-stage variant share physics (same
		// pattern) but differ in timing.
		{"ref-mpi", core.LJ, 0, sim.Ref(), "",
			0.110842105619608, 0xb4bcede66d7c07, 0.0034687130980392221},
		{"utofu-3stage", core.LJ, 0, sim.UTofu3Stage(), "",
			0.10818704636274543, 0xb4bcede66d7c07, 0.0033876897931372644},
		// Fault injection perturbs timing (retransmits) but not physics.
		{"opt-faults-serial", core.LJ, 0, sim.Opt(), "drop=0.0001,seed=7",
			0.056205977314705773, optPosHash, 0.0017578090666666637},

		// Pins of the single-pass fold.
		{"mpi-p2p", core.LJ, 0, sim.MPIP2P(), "",
			0.11064304889019604, 0xb4bcede66d6703, 0.0034655594460784294},
		{"4tni-p2p", core.LJ, 0, sim.P2P4TNI(), "",
			0.077991902442156855, 0xb4bcede66d6703, 0.0024405929049019603},
		{"6tni-p2p", core.LJ, 0, sim.P2P6TNI(), "",
			0.083767617759803903, 0xb4bcede66d6703, 0.0026234909852941167},
		{"opt-no-prereg", core.LJ, 0, noPrereg, "",
			0.061139365750980293, 0xb4bcede66d6703, 0.0019119543676470567},
		{"opt-6cells", core.LJ, 6, sim.Opt(), "",
			0.021067117553921585, 0x474e2b5ac844ec1, 0.00065896063823529458},
		{"eam-opt", core.EAM, 0, sim.Opt(), "",
			0.082066537941176299, 0xfb0b608e73730652, 0.0025654072235294072},
		{"eam-ref-mpi", core.EAM, 0, sim.Ref(), "",
			0.16721679265098047, 0xfb0b608e738d100b, 0.0052286353784313754},
		{"eam-opt-overlap", core.EAM, 0, overlap, "",
			0.081726609780391951, 0xfb0b608e73730652, 0.0025547753294117596},
	}
}

// equivFingerprint folds every rank clock and local atom position into a
// compact pair the pins compare against.
func equivFingerprint(s *sim.Simulation) (clockSum float64, posHash uint64) {
	for _, r := range s.Ranks() {
		clockSum += r.Clock
		for i := 0; i < r.Atoms.NLocal; i++ {
			x := r.Atoms.X[i]
			posHash ^= math.Float64bits(x.X) + 3*math.Float64bits(x.Y) + 7*math.Float64bits(x.Z)
		}
	}
	return clockSum, posHash
}

func TestHaloRefactorEquivalence(t *testing.T) {
	for _, pin := range equivPins() {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			m, err := sim.NewMachine(vec.I3{X: 2, Y: 2, Z: 2})
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := core.BaseConfig(pin.kind)
			if err != nil {
				t.Fatal(err)
			}
			n := pin.cells
			if n == 0 {
				n = 16
			}
			cfg.Cells = vec.I3{X: n, Y: n, Z: n}
			s, err := sim.New(m, pin.variant, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if pin.faults != "" {
				spec, err := faultinject.ParseSpec(pin.faults)
				if err != nil {
					t.Fatal(err)
				}
				s.SetFaults(faultinject.New(spec))
			}
			for i := 0; i < 20; i++ {
				s.Step()
			}
			clockSum, posHash := equivFingerprint(s)
			if clockSum != pin.clockSum {
				t.Errorf("clockSum = %.17g, pre-refactor pin %.17g", clockSum, pin.clockSum)
			}
			if posHash != pin.posHash {
				t.Errorf("posHash = %#x, pre-refactor pin %#x", posHash, pin.posHash)
			}
			if got := s.ElapsedMax(); got != pin.elapsed {
				t.Errorf("elapsed = %.17g, pre-refactor pin %.17g", got, pin.elapsed)
			}
		})
	}
}
