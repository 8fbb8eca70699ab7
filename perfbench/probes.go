package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"tofumd/internal/core"
	"tofumd/internal/des"
	"tofumd/internal/md/atom"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/md/potential"
	"tofumd/internal/md/restart"
	"tofumd/internal/md/sim"
	"tofumd/internal/mpi"
	"tofumd/internal/threadpool"
	"tofumd/internal/tofu"
	"tofumd/internal/trace"
	"tofumd/internal/utofu"
)

// probeRepeats is how many times each layer call is timed; layers report
// the median.
const probeRepeats = 7

// prober times layers from outside: each probe calls one layer's exported
// functions on state captured from the workload, inside the benchmark's own
// spans, and checks what the layer returned.
type prober struct {
	tr      *tracer
	chk     *checker
	m       map[string]float64
	details map[string]any
	seed    int64
	op      int
}

// call runs fn inside a span and returns its wall time.
func (p *prober) call(layer, name string, parent int, fn func()) time.Duration {
	id := p.tr.begin(layer, name, parent, p.op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(id)
	return d
}

// next starts a new operation with a root span for one layer's probe.
func (p *prober) next(layer string) int {
	p.op++
	return p.tr.begin(layer, "probe "+layer, 0, p.op)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// probeWorkload runs one more traced repeat of stateSpec and, on its final
// state, probes the potential, neighbor, restart and thread-pool layers and
// the EAM spline; then it replays the halo round of putSpec (uTofu puts) and
// mpiSpec (MPI exchanges) through the fabric, event engine, uTofu and MPI
// layers. It returns the probe repeat.
func probeWorkload(cfg config, tr *tracer, chk *checker, out outcome, drift float64, stateSpec, putSpec, mpiSpec core.RunSpec, op int) (*repeat, error) {
	rp, run, c, err := runRepeat(stateSpec, drift, tr, op, newLiveHeap(), newAllocSample())
	if err != nil {
		return nil, err
	}
	defer run.Close()
	chk.op("probe repeat", c)
	p := &prober{tr: tr, chk: chk, m: out.metrics, details: out.details, seed: cfg.seed, op: op}
	s := run.Sim()
	_, pe := energies(s)
	p.potential(s, pe)
	p.neighbor(s)
	p.spline()
	p.restart(run)
	p.threadpool(len(s.Ranks()))
	if err := p.rounds(putSpec, mpiSpec); err != nil {
		return nil, err
	}
	return rp, nil
}

// cloneArrays deep-copies a rank's atom storage so a force evaluation can
// run on it without touching the simulation.
func cloneArrays(a *atom.Arrays) *atom.Arrays {
	c := *a
	c.ID = append([]int64(nil), a.ID...)
	c.Type = append([]int32(nil), a.Type...)
	c.X = append(c.X[:0:0], a.X...)
	c.V = append(c.V[:0:0], a.V...)
	c.F = append(c.F[:0:0], a.F...)
	c.Rho = append([]float64(nil), a.Rho...)
	c.Fp = append([]float64(nil), a.Fp...)
	return &c
}

// potential times one all-rank force evaluation on copies of the ranks'
// atoms with their current neighbor lists. For EAM the ghost densities and
// embedding derivatives are exchanged by atom id between the passes,
// standing in for the reverse/forward communication (untimed). The summed
// energy must match the simulation's own.
func (p *prober) potential(s *sim.Simulation, simPE float64) {
	root := p.next("md/potential")
	defer p.tr.end(root)
	ranks := s.Ranks()
	pot := s.Cfg.Potential
	mb, many := pot.(potential.ManyBody)
	var times []float64
	var inter int
	var pe float64
	var c checks
	for k := 0; k < probeRepeats; k++ {
		clones := make([]*atom.Arrays, len(ranks))
		for i, r := range ranks {
			clones[i] = cloneArrays(r.Atoms)
		}
		inter, pe = 0, 0
		var d time.Duration
		if many {
			d += p.call("md/potential", "EAM.AccumulateRho", root, func() {
				for i, r := range ranks {
					clones[i].ZeroForces()
					clones[i].ZeroRho()
					inter += mb.AccumulateRho(clones[i], r.NL)
				}
			})
			exchangeByID(clones, func(a *atom.Arrays) []float64 { return a.Rho }, true)
			d += p.call("md/potential", "EAM.FinishRho", root, func() {
				for _, a := range clones {
					pe += mb.FinishRho(a)
				}
			})
			exchangeByID(clones, func(a *atom.Arrays) []float64 { return a.Fp }, false)
			d += p.call("md/potential", "EAM.ComputeForce", root, func() {
				for i, r := range ranks {
					res := mb.ComputeForce(clones[i], r.NL)
					inter += res.Interactions
					pe += res.PotentialEnergy
				}
			})
		} else {
			d = p.call("md/potential", pot.Name()+".Compute", root, func() {
				for i, r := range ranks {
					clones[i].ZeroForces()
					res := pot.Compute(clones[i], r.NL)
					inter += res.Interactions
					pe += res.PotentialEnergy
				}
			})
		}
		times = append(times, d.Seconds())
	}
	perAtom := pe / float64(s.TotalAtoms())
	c.need(inter > 0, "no interactions evaluated")
	c.need(math.Abs(perAtom-simPE) <= 1e-9*math.Abs(simPE), "recomputed PE/atom %.15g differs from the simulation's %.15g", perAtom, simPE)
	p.chk.op("probe md/potential", c)
	med := median(times)
	p.m["potential.compute_ms"] = med * 1e3
	p.m["potential.pairs_per_s"] = float64(inter) / med
}

// exchangeByID completes a per-atom EAM array across ranks by global atom
// id: with reverse, every copy's contribution (local or ghost) is summed
// into the owner; otherwise every ghost takes its owner's value.
func exchangeByID(ranks []*atom.Arrays, field func(*atom.Arrays) []float64, reverse bool) {
	owner := map[int64]float64{}
	if reverse {
		for _, a := range ranks {
			f := field(a)
			for i := 0; i < a.Total(); i++ {
				owner[a.ID[i]] += f[i]
			}
		}
		for _, a := range ranks {
			f := field(a)
			for i := 0; i < a.NLocal; i++ {
				f[i] = owner[a.ID[i]]
			}
		}
		return
	}
	for _, a := range ranks {
		f := field(a)
		for i := 0; i < a.NLocal; i++ {
			owner[a.ID[i]] = f[i]
		}
	}
	for _, a := range ranks {
		f := field(a)
		for i := a.NLocal; i < a.Total(); i++ {
			f[i] = owner[a.ID[i]]
		}
	}
}

// neighbor times one all-rank neighbor build on the ranks' current atoms in
// the simulation's list mode, counting distance checks, stored pairs and
// allocated bytes.
func (p *prober) neighbor(s *sim.Simulation) {
	root := p.next("md/neighbor")
	defer p.tr.end(root)
	cutoff := s.Cfg.Potential.Cutoff() + s.Cfg.Skin
	ranks := s.Ranks()
	allocs := newAllocSample()
	var times, mib []float64
	var c checks
	cand, pairs := -1, -1
	for k := 0; k < probeRepeats; k++ {
		nc, np := 0, 0
		a0 := allocs.bytes()
		d := p.call("md/neighbor", "neighbor.Build", root, func() {
			for _, r := range ranks {
				l := neighbor.Build(r.Atoms, cutoff, r.NL.Mode)
				nc += l.Candidates
				np += l.Pairs()
			}
		})
		mib = append(mib, float64(allocs.bytes()-a0)/(1<<20))
		times = append(times, d.Seconds())
		c.need(cand < 0 || (nc == cand && np == pairs), "build %d not deterministic: %d/%d vs %d/%d", k, np, nc, pairs, cand)
		cand, pairs = nc, np
	}
	c.need(pairs > 0 && pairs <= cand, "implausible build: %d pairs of %d candidates", pairs, cand)
	p.chk.op("probe md/neighbor", c)
	p.m["neighbor.build_ms"] = median(times) * 1e3
	p.m["neighbor.candidates"] = float64(cand)
	p.m["neighbor.pairs"] = float64(pairs)
	p.m["neighbor.useful_ratio"] = float64(pairs) / float64(cand)
	p.m["neighbor.alloc_mb"] = median(mib)
}

// spline times the EAM copper tables: PhiAt over seeded pair distances and
// FAt over seeded densities, per evaluation.
func (p *prober) spline() {
	root := p.next("md/potential")
	defer p.tr.end(root)
	var c checks
	pot, err := core.NewPotential(core.EAM)
	eam, ok := pot.(*potential.EAM)
	c.need(err == nil && ok, "EAM copper potential: %v", err)
	if !ok {
		p.chk.op("probe spline", c)
		return
	}
	const n = 1 << 16
	rng := rand.New(rand.NewSource(p.seed))
	rs := make([]float64, n)
	rhos := make([]float64, n)
	for i := range rs {
		rs[i] = 2 + rng.Float64()*(eam.Cut-2)
		rhos[i] = 1 + rng.Float64()*200
	}
	var times []float64
	var acc float64
	for k := 0; k < probeRepeats; k++ {
		acc = 0
		d := p.call("md/potential", "EAM.PhiAt+FAt sweep", root, func() {
			for i := range rs {
				acc += eam.PhiAt(rs[i]) + eam.FAt(rhos[i])
			}
		})
		times = append(times, d.Seconds())
	}
	c.need(finite(acc) && acc != 0, "spline sweep sum %v", acc)
	p.chk.op("probe spline", c)
	p.m["potential.spline_eval_ns"] = median(times) * 1e9 / (2 * n)
}

// restart times checkpoint capture, serialization and parsing of the
// workload's state; the parsed snapshot must equal the captured one.
func (p *prober) restart(run *core.Running) {
	root := p.next("md/restart")
	defer p.tr.end(root)
	var capT, wrT, rdT []float64
	var c checks
	var size int
	for k := 0; k < probeRepeats; k++ {
		var snap, back *restart.Snapshot
		var buf bytes.Buffer
		var werr, rerr error
		capT = append(capT, ms(p.call("md/restart", "restart.Capture", root, func() { snap = run.Capture(run.StepsDone()) })))
		wrT = append(wrT, ms(p.call("md/restart", "restart.Write", root, func() { werr = restart.Write(&buf, snap) })))
		c.need(werr == nil, "write: %v", werr)
		c.need(size == 0 || size == buf.Len(), "checkpoint size changed: %d vs %d", buf.Len(), size)
		size = buf.Len()
		data := buf.Bytes()
		rdT = append(rdT, ms(p.call("md/restart", "restart.Read", root, func() { back, rerr = restart.Read(bytes.NewReader(data)) })))
		c.need(rerr == nil, "read: %v", rerr)
		if rerr == nil {
			c.need(sameSnapshot(snap, back), "read-back snapshot differs from the capture")
		}
	}
	p.chk.op("probe md/restart", c)
	p.m["restart.capture_ms"] = median(capT)
	p.m["restart.write_ms"] = median(wrT)
	p.m["restart.read_ms"] = median(rdT)
	p.m["restart.bytes"] = float64(size)
}

func sameSnapshot(a, b *restart.Snapshot) bool {
	if a.Step != b.Step || a.Box != b.Box || len(a.Atoms) != len(b.Atoms) {
		return false
	}
	for i := range a.Atoms {
		if a.Atoms[i] != b.Atoms[i] {
			return false
		}
	}
	return true
}

// threadpool times ForEach over the workload's rank count with an empty
// body: the pure dispatch cost every per-rank stage pays.
func (p *prober) threadpool(ranks int) {
	root := p.next("threadpool")
	defer p.tr.end(root)
	pool := threadpool.New(0)
	defer pool.Close()
	var c checks
	var hits atomic.Int64
	pool.ForEach(ranks, func(int) { hits.Add(1) })
	c.need(hits.Load() == int64(ranks), "ForEach covered %d of %d indices", hits.Load(), ranks)
	const calls = 200
	empty := func(int) {}
	var us []float64
	for k := 0; k < 3*probeRepeats; k++ {
		d := p.call("threadpool", "Pool.ForEach x200", root, func() {
			for i := 0; i < calls; i++ {
				pool.ForEach(ranks, empty)
			}
		})
		us = append(us, d.Seconds()*1e6/calls)
	}
	p.chk.op("probe threadpool", c)
	p.m["threadpool.foreach_us"] = median(us)
}

// round is one recorded fabric round of a workload step.
type round struct {
	kind  string
	start float64
	end   float64
	msgs  []trace.MessageEvent
	mach  *sim.Machine
}

// recordRound steps spec once with a trace recorder attached and returns its
// largest round of the given kind ("utofu-put" or "mpi-p2p"). Rounds and
// messages are recorded in the same order, each round after its messages,
// so consecutive message runs partition by round count; collectives carry
// no messages.
func recordRound(spec core.RunSpec, kind string) (*round, error) {
	rec := trace.NewRecorder()
	spec.Recorder = rec
	run, err := core.Start(spec)
	if err != nil {
		return nil, fmt.Errorf("record %s round: %w", kind, err)
	}
	defer run.Close()
	run.Step()
	msgs := rec.Messages()
	var best *round
	idx := 0
	for _, rd := range rec.Rounds() {
		if rd.Kind == "allreduce" {
			continue
		}
		if idx+rd.Count > len(msgs) {
			return nil, fmt.Errorf("record %s round: rounds claim more than the %d recorded messages", kind, len(msgs))
		}
		group := msgs[idx : idx+rd.Count]
		idx += rd.Count
		if rd.Kind == kind && (best == nil || len(group) > len(best.msgs) || (len(group) == len(best.msgs) && rd.Bytes > roundBytes(best.msgs))) {
			best = &round{kind: rd.Kind, start: rd.Start, end: rd.End, msgs: group, mach: run.Sim().M}
		}
	}
	if idx != len(msgs) {
		return nil, fmt.Errorf("record %s round: rounds cover %d of %d messages", kind, idx, len(msgs))
	}
	if best == nil {
		return nil, fmt.Errorf("record %s round: variant %s ran no such round", kind, spec.Variant.Name)
	}
	return best, nil
}

func roundBytes(msgs []trace.MessageEvent) int {
	n := 0
	for _, m := range msgs {
		n += m.Bytes
	}
	return n
}

// rounds replays the workload's halo rounds through the fabric, the event
// engine, uTofu and MPI.
func (p *prober) rounds(putSpec, mpiSpec core.RunSpec) error {
	put, err := recordRound(putSpec, "utofu-put")
	if err != nil {
		return err
	}
	ex, err := recordRound(mpiSpec, "mpi-p2p")
	if err != nil {
		return err
	}
	p.fabric(put)
	p.events(put)
	p.utofu(put)
	p.mpi(ex)
	p.details["put_round_transfers"] = len(put.msgs)
	p.details["put_round_bytes"] = roundBytes(put.msgs)
	p.details["mpi_round_messages"] = len(ex.msgs)
	p.details["mpi_round_bytes"] = roundBytes(ex.msgs)
	return nil
}

// fabric times tofu.Fabric.RunRound on the recorded put round; the replayed
// round must finish when the recorded one did.
func (p *prober) fabric(rd *round) {
	root := p.next("tofu")
	defer p.tr.end(root)
	fab := tofu.NewFabric(rd.mach.Map, rd.mach.Params)
	trs := make([]*tofu.Transfer, len(rd.msgs))
	for i, ev := range rd.msgs {
		trs[i] = &tofu.Transfer{
			Src: ev.Src, Dst: ev.Dst, TNI: ev.TNI, VCQ: ev.VCQ, Thread: ev.Thread, DstThread: ev.DstThread,
			Bytes: ev.Bytes, ReadyAt: ev.ReadyAt - rd.start, TwoStep: ev.TwoStep, IsGet: ev.IsGet,
		}
	}
	objs := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var times []float64
	var c checks
	want := rd.end - rd.start
	var allocs uint64
	for k := 0; k < probeRepeats; k++ {
		var rerr error
		rtmetrics.Read(objs)
		o0 := objs[0].Value.Uint64()
		d := p.call("tofu", "Fabric.RunRound", root, func() { rerr = fab.RunRound(trs, tofu.IfaceUTofu) })
		rtmetrics.Read(objs)
		allocs += objs[0].Value.Uint64() - o0
		times = append(times, d.Seconds())
		c.need(rerr == nil, "RunRound: %v", rerr)
		var last float64
		for _, tr := range trs {
			c.need(!tr.Failed() && tr.RecvComplete > 0, "transfer %d->%d not delivered", tr.Src, tr.Dst)
			last = math.Max(last, tr.RecvComplete)
		}
		c.need(math.Abs(last-want) <= 1e-9*want, "replayed round ends at %.12g, recorded %.12g", last, want)
	}
	p.chk.op("probe tofu", dedupe(c))
	med := median(times)
	p.m["tofu.round_ms"] = med * 1e3
	p.m["tofu.transfers_per_s"] = float64(len(trs)) / med
	p.m["tofu.allocs_per_transfer"] = float64(allocs) / float64(probeRepeats*len(trs))
}

// dedupe drops repeated problems so one bad round reports once.
func dedupe(c checks) checks {
	seen := map[string]bool{}
	var out checks
	for _, s := range c {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// events times a bare des.Engine on the recorded round's event times: one
// event per stage of every message's timing chain (issue, TNI, arrival,
// completion), so the queue holds the round's real time distribution.
func (p *prober) events(rd *round) {
	root := p.next("des")
	defer p.tr.end(root)
	var ts []float64
	for _, ev := range rd.msgs {
		ts = append(ts, ev.IssueStart, ev.IssueDone, ev.TxStart, ev.TxDone, ev.Arrival, ev.RecvComplete)
	}
	var times []float64
	var c checks
	for k := 0; k < probeRepeats; k++ {
		n := 0
		bump := func() { n++ }
		d := p.call("des", "Engine.Schedule+Run", root, func() {
			var e des.Engine
			for _, t := range ts {
				e.Schedule(t-rd.start, bump)
			}
			e.Run()
		})
		c.need(n == len(ts), "ran %d of %d events", n, len(ts))
		times = append(times, d.Seconds())
	}
	p.chk.op("probe des", dedupe(c))
	p.m["des.events_per_s"] = float64(len(ts)) / median(times)
}

// utofu times utofu.System.ExecuteRound on the recorded put round, with one
// VCQ per (rank, TNI) and one registered receive region per destination.
func (p *prober) utofu(rd *round) {
	root := p.next("utofu")
	defer p.tr.end(root)
	var c checks
	sys := utofu.NewSystem(tofu.NewFabric(rd.mach.Map, rd.mach.Params))
	vcqs := map[[2]int]*utofu.VCQ{}
	size := map[int]int{}
	largest := 0
	for _, ev := range rd.msgs {
		size[ev.Dst] += ev.Bytes
		largest = max(largest, ev.Bytes)
	}
	payload := make([]byte, largest)
	regions := map[int]*utofu.MemRegion{}
	off := map[int]int{}
	puts := make([]*utofu.Put, 0, len(rd.msgs))
	for _, ev := range rd.msgs {
		key := [2]int{ev.Src, ev.TNI}
		v, ok := vcqs[key]
		if !ok {
			var err error
			v, err = sys.CreateVCQ(ev.Src, ev.TNI)
			c.need(err == nil, "CreateVCQ(%d, %d): %v", ev.Src, ev.TNI, err)
			if err != nil {
				p.chk.op("probe utofu", c)
				return
			}
			vcqs[key] = v
		}
		reg, ok := regions[ev.Dst]
		if !ok {
			reg, _ = sys.Register(ev.Dst, make([]byte, size[ev.Dst]))
			regions[ev.Dst] = reg
		}
		puts = append(puts, &utofu.Put{
			VCQ: v, Thread: ev.Thread, DstThread: ev.DstThread,
			DstSTADD: reg.STADD, DstOff: off[ev.Dst], Src: payload[:ev.Bytes],
			ReadyAt: ev.ReadyAt - rd.start,
		})
		off[ev.Dst] += ev.Bytes
	}
	var times []float64
	for k := 0; k < probeRepeats; k++ {
		var err error
		d := p.call("utofu", "System.ExecuteRound", root, func() { err = sys.ExecuteRound(puts) })
		c.need(err == nil, "ExecuteRound: %v", err)
		for _, pt := range puts {
			c.need(!pt.Failed && pt.RecvComplete > 0, "put from rank %d not delivered", pt.VCQ.Rank)
		}
		times = append(times, d.Seconds())
	}
	p.chk.op("probe utofu", dedupe(c))
	p.m["utofu.round_ms"] = median(times) * 1e3
}

// mpi times mpi.Comm.ExchangeRound on the recorded 3-stage exchange round.
func (p *prober) mpi(rd *round) {
	root := p.next("mpi")
	defer p.tr.end(root)
	var c checks
	comm := mpi.NewComm(tofu.NewFabric(rd.mach.Map, rd.mach.Params))
	msgs := make([]*mpi.Message, len(rd.msgs))
	for i, ev := range rd.msgs {
		msgs[i] = &mpi.Message{
			Src: ev.Src, Dst: ev.Dst, Tag: i, Data: make([]byte, ev.Bytes),
			KnownLength: !ev.TwoStep, ReadyAt: ev.ReadyAt - rd.start,
		}
	}
	var times []float64
	for k := 0; k < probeRepeats; k++ {
		d := p.call("mpi", "Comm.ExchangeRound", root, func() { comm.ExchangeRound(msgs) })
		for _, m := range msgs {
			c.need(m.Attempts == 1 && m.RecvComplete > 0, "message %d->%d not delivered", m.Src, m.Dst)
		}
		times = append(times, d.Seconds())
	}
	p.chk.op("probe mpi", dedupe(c))
	p.m["mpi.round_ms"] = median(times) * 1e3
}
