package sim

import (
	"sort"

	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/md/potential"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// packThreading returns the threading mode used for message packing and
// unpacking: parallelized by the comm threads under the fine-grained
// scheme, serial otherwise.
func (s *Simulation) packThreading() machine.Threading {
	if s.Var.CommThreads > 1 {
		return machine.Pool
	}
	return machine.Serial
}

// commRounds enumerates the bulk-synchronous rounds of one halo operation:
// a single {-1, 0} for p2p, or one (Dim, Iter) pair per 3-stage round.
func (s *Simulation) commRounds() []halo.RoundKey {
	return halo.Rounds(s.Var.Pattern, s.shells)
}

// inRound reports whether link l belongs to round k.
func inRound(l *link, k halo.RoundKey) bool {
	return halo.InRound(l.stage3Dim, l.stage3Iter, k)
}

// batch collects a round's messages: msgs is what the halo engine runs,
// byDst indexes them per receiver so unpacking stays linear in the message
// count.
type batch struct {
	msgs  []*halo.Msg
	byDst [][]*msg
}

func (s *Simulation) newBatch() *batch {
	return &batch{byDst: make([][]*msg, len(s.ranks))}
}

func (b *batch) add(m *msg) {
	b.msgs = append(b.msgs, &m.Msg)
	b.byDst[m.Dst] = append(b.byDst[m.Dst], m)
}

// linkMsg builds the message sent over l: owner to ghost holder into the
// forward inbox or, for rev, ghost holder back to owner into the reverse
// inbox. The caller stamps ReadyAt.
func linkMsg(l *link, rev bool, data []byte, known bool) *msg {
	res, from, to, peerThread, inbox := l.fwd, l.src, l.dst, l.rev.thread, inboxFwd
	if rev {
		res, from, to, peerThread, inbox = l.rev, l.dst, l.src, l.fwd.thread, inboxRev
	}
	return &msg{
		Msg: halo.Msg{
			Src: from.ID, Dst: to.ID,
			Thread: res.thread, DstThread: peerThread, TNI: res.tni,
			Data: data, Known: known,
		},
		link: l, inbox: inbox,
	}
}

// --- the halo pass ------------------------------------------------------

// haloPass is one ghost-communication stage: the direction it ships in,
// its payload codec, and the section 3.4 options that set the forward
// stage apart. Every stage (border, forward, reverse and the EAM scalar
// exchanges) packs, ships and unpacks through haloRound.
type haloPass struct {
	// rev ships from ghost holders back to owners over the receive links,
	// running the rounds in reverse so 3-stage contributions cascade home.
	rev bool
	// known marks length-known messages (the pass reuses the border
	// lists); unknown-length messages pay the MPI two-step protocol.
	known bool
	// direct writes payloads straight into the receiver's pre-registered
	// position array: no inbox, no unpack copy.
	direct bool
	// skipEmptyUnpack charges no unpack time to a receiver of 0 bytes.
	skipEmptyUnpack bool
	// pack encodes rank r's payload for l into buf; unpack decodes the
	// data r received over l.
	pack   func(r *Rank, l *link, buf []byte) []byte
	unpack func(r *Rank, l *link, data []byte)
}

// links returns the links rank r sends on in this pass.
func (p *haloPass) links(r *Rank) []*link {
	if p.rev {
		return r.recvLinks
	}
	return r.sendLinks
}

// buf returns the sender's packing scratch of l in this pass.
func (p *haloPass) buf(l *link) *[]byte {
	if p.rev {
		return &l.revBuf
	}
	return &l.sendBuf
}

// runPass executes every round of the pass, in reverse order for rev.
func (s *Simulation) runPass(p *haloPass) {
	rounds := s.commRounds()
	for i := range rounds {
		k := rounds[i]
		if p.rev {
			k = rounds[len(rounds)-1-i]
		}
		s.haloRound(p, k)
	}
}

// haloRound packs, ships and unpacks the messages of round k, charging
// pack and unpack time to the ranks.
func (s *Simulation) haloRound(p *haloPass, k halo.RoundKey) {
	packTh := s.packThreading()
	s.forRanks(func(id int) {
		r := s.ranks[id]
		bytes := 0
		for _, l := range p.links(r) {
			if inRound(l, k) {
				buf := p.buf(l)
				*buf = p.pack(r, l, *buf)
				bytes += len(*buf)
			}
		}
		r.Clock += s.M.Cost.PackTime(units.Bytes(bytes), packTh)
	})
	// Serial: ensureInbox charges the receiver's clock, which a later
	// sender's ReadyAt may read.
	b := s.newBatch()
	for _, r := range s.ranks {
		for _, l := range p.links(r) {
			if !inRound(l, k) {
				continue
			}
			m := linkMsg(l, p.rev, *p.buf(l), p.known)
			if p.direct {
				m.inbox, m.DstOff = inboxXArray, l.recvStart*posBytes
			} else if s.Var.Transport == halo.TransportUTofu {
				s.ensureInbox(s.ranks[m.Dst], l.inboxOf(m.inbox), len(m.Data))
			}
			m.ReadyAt = r.Clock
			b.add(m)
		}
	}
	s.runRound(s.Var.Transport, b)
	s.forRanks(func(id int) {
		r := s.ranks[id]
		bytes := 0
		for _, m := range b.byDst[id] {
			s.deliver(m)
			p.unpack(r, m.link, m.Data)
			m.link.seq++
			if !p.direct {
				bytes += len(m.Data)
			}
		}
		if bytes > 0 || !p.skipEmptyUnpack {
			r.Clock += s.M.Cost.UnpackTime(units.Bytes(bytes), packTh)
		}
	})
}

// --- border stage -----------------------------------------------------

// doBorder rebuilds the ghost regions: send lists are derived from the
// sub-box geometry, atoms are shipped, and receivers append ghosts and
// record the recv_ptr offsets. Under the pre-registered scheme the offsets
// are piggybacked back to the senders (section 3.4).
func (s *Simulation) doBorder() {
	// A fresh plan re-arms transiently degraded neighbor links; health
	// quarantine is sticky and survives the rebuild (only ProbeHealth
	// re-arms a quarantined link or TNI).
	s.fb.Reset()
	s.forRanks(func(id int) {
		r := s.ranks[id]
		r.Atoms.ClearGhosts()
		r.resetPlan()
	})
	if s.Var.Pattern == halo.P2P {
		s.buildP2PSendLists()
	}
	border := &haloPass{
		pack: func(r *Rank, l *link, buf []byte) []byte {
			return encodeBorder(buf, r.Atoms.ID, r.Atoms.Type, r.Atoms.X, l.sendList, l.shift)
		},
		unpack: func(r *Rank, l *link, data []byte) {
			recs := decodeBorder(data)
			l.recvStart = r.Atoms.Total()
			l.recvCount = len(recs)
			for _, rec := range recs {
				r.Atoms.AddGhost(rec.id, rec.typ, rec.pos)
			}
		},
	}
	for _, k := range s.commRounds() {
		if s.Var.Pattern == halo.ThreeStage {
			s.build3StageSendLists(k)
		}
		s.haloRound(border, k)
	}
	if s.Var.Preregistered {
		s.piggybackOffsets()
	}
}

// buildP2PSendLists fills every p2p link's send list from the rank's local
// atoms, via border bins when the geometry permits (section 3.5.2).
func (s *Simulation) buildP2PSendLists() {
	s.forRanks(func(id int) {
		r := s.ranks[id]
		a := r.Atoms
		if r.binOK {
			byDir := make(map[vec.I3]*link, len(r.sendLinks))
			for _, l := range r.sendLinks {
				byDir[l.dir] = l
			}
			for i := 0; i < a.NLocal; i++ {
				bin := r.qual.Bin(a.X[i])
				for _, d := range r.binDirs[bin] {
					if l := byDir[d]; l != nil {
						l.sendList = append(l.sendList, int32(i))
					}
				}
			}
		} else {
			for _, l := range r.sendLinks {
				for i := 0; i < a.NLocal; i++ {
					if r.qual.Qualifies(a.X[i], l.dir) {
						l.sendList = append(l.sendList, int32(i))
					}
				}
			}
		}
		r.Clock += s.M.Cost.BorderDecideTime(a.NLocal, r.binOK)
	})
}

// build3StageSendLists fills the send lists of round k: iteration 0 scans
// locals plus the ghosts of earlier dimensions; iteration k>0 forwards the
// ghosts received on the same-direction link of iteration k-1.
func (s *Simulation) build3StageSendLists(k halo.RoundKey) {
	if k.Iter == 0 {
		s.forRanks(func(id int) {
			s.ranks[id].dimGhostMark = s.ranks[id].Atoms.Total()
		})
	}
	s.forRanks(func(id int) {
		r := s.ranks[id]
		a := r.Atoms
		scanned := 0
		for _, l := range r.sendLinks {
			if !inRound(l, k) {
				continue
			}
			l.sendList = l.sendList[:0]
			sign := l.dir.Comp(k.Dim)
			qualify := func(i int) bool {
				x := a.X[i].Comp(k.Dim)
				if sign > 0 {
					return x >= r.Hi.Comp(k.Dim)-s.ghCut
				}
				return x < r.Lo.Comp(k.Dim)+s.ghCut
			}
			if k.Iter == 0 {
				for i := 0; i < r.dimGhostMark; i++ {
					if qualify(i) {
						l.sendList = append(l.sendList, int32(i))
					}
				}
				scanned += r.dimGhostMark
			} else if prev := r.findRecvLink(k.Dim, k.Iter-1, l.dir); prev != nil {
				for i := prev.recvStart; i < prev.recvStart+prev.recvCount; i++ {
					if qualify(i) {
						l.sendList = append(l.sendList, int32(i))
					}
				}
				scanned += prev.recvCount
			}
		}
		r.Clock += s.M.Cost.BorderDecideTime(scanned, false)
	})
}

// findRecvLink locates the rank's receive link of a 3-stage round.
func (r *Rank) findRecvLink(dim, iter int, dir vec.I3) *link {
	for _, l := range r.recvLinks {
		if l.stage3Dim == dim && l.stage3Iter == iter && l.dir == dir {
			return l
		}
	}
	return nil
}

// piggybackOffsets ships each receiver's ghost offset (recv_ptr) back to
// the sender as an 8-byte descriptor immediate. Functionally the shared
// link struct already carries the offset; this round charges its time.
func (s *Simulation) piggybackOffsets() {
	b := s.newBatch()
	for _, r := range s.ranks {
		for _, l := range r.recvLinks {
			m := linkMsg(l, true, make([]byte, 8), true)
			m.ReadyAt = r.Clock
			b.add(m)
		}
	}
	s.runRound(s.Var.Transport, b)
}

// --- forward and reverse stages ------------------------------------------

// doForward updates ghost positions from their owners: positions packed per
// send list, shipped over the variant's transport, and written into the
// receiver's position array — directly via RDMA under the pre-registered
// scheme (no unpack copy), via receive buffers otherwise.
func (s *Simulation) doForward() {
	s.runPass(&haloPass{
		known: true, direct: s.Var.Preregistered, skipEmptyUnpack: true,
		pack: func(r *Rank, l *link, buf []byte) []byte {
			return encodePositions(buf, r.Atoms.X, l.sendList, l.shift)
		},
		unpack: func(r *Rank, l *link, data []byte) {
			decodePositions(data, r.Atoms.X, l.recvStart, l.recvCount)
		},
	})
}

// doReverse returns ghost forces to their owners (Newton's 3rd law): each
// ghost holder packs the force range of its ghosts and the owner
// accumulates into the send-list atoms.
func (s *Simulation) doReverse() {
	s.runPass(&haloPass{
		rev: true, known: true,
		pack: func(r *Rank, l *link, buf []byte) []byte {
			return encodeVectors(buf, r.Atoms.F, l.recvStart, l.recvCount)
		},
		unpack: func(r *Rank, l *link, data []byte) {
			decodeAddVectors(data, r.Atoms.F, l.sendList)
		},
	})
}

// reverseScalar sends ghost scalar contributions (EAM densities) home.
func (s *Simulation) reverseScalar(arr func(*Rank) []float64) {
	s.runPass(&haloPass{
		rev: true, known: true,
		pack: func(r *Rank, l *link, buf []byte) []byte {
			return halo.EncodeScalars(buf, arr(r), l.recvStart, l.recvCount)
		},
		unpack: func(r *Rank, l *link, data []byte) {
			decodeAddScalars(data, arr(r), l.sendList)
		},
	})
}

// forwardScalar distributes an owner scalar (EAM embedding derivative) to
// ghosts.
func (s *Simulation) forwardScalar(arr func(*Rank) []float64) {
	s.runPass(&haloPass{
		known: true,
		pack: func(r *Rank, l *link, buf []byte) []byte {
			return encodeScalars(buf, arr(r), l.sendList)
		},
		unpack: func(r *Rank, l *link, data []byte) {
			halo.DecodeScalars(data, arr(r), l.recvStart, l.recvCount)
		},
	})
}

// --- exchange stage -----------------------------------------------------

// doExchange migrates atoms that left their sub-box to their new owners.
// Exchange traffic is cold-path (reneighbor steps only) and flows over MPI
// in every variant, as the optimized artifact leaves it untouched.
func (s *Simulation) doExchange() {
	s.forRanks(func(id int) {
		r := s.ranks[id]
		a := r.Atoms
		a.ClearGhosts() // stale ghosts are rebuilt by the following border
		for dst := range r.exchScratch {
			delete(r.exchScratch, dst)
		}
		for i := a.NLocal - 1; i >= 0; i-- {
			x := s.dec.WrapPosition(a.X[i])
			a.X[i] = x
			if x.X >= r.Lo.X && x.X < r.Hi.X &&
				x.Y >= r.Lo.Y && x.Y < r.Hi.Y &&
				x.Z >= r.Lo.Z && x.Z < r.Hi.Z {
				continue
			}
			owner := s.M.Map.RankID(s.dec.OwnerCoord(x))
			if owner == r.ID {
				continue
			}
			r.exchScratch[owner] = append(r.exchScratch[owner],
				exchRecord{id: a.ID[i], typ: a.Type[i], pos: x, vel: a.V[i]})
			a.RemoveLocal(i)
		}
		r.Clock += s.M.Cost.ScanTime(a.NLocal)
	})
	b := s.newBatch()
	for _, r := range s.ranks {
		dsts := make([]int, 0, len(r.exchScratch))
		for d := range r.exchScratch {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			data := encodeExchange(nil, r.exchScratch[d])
			b.add(&msg{Msg: halo.Msg{
				Src: r.ID, Dst: d, Data: data,
				ReadyAt: r.Clock + s.M.Cost.PackTime(units.Bytes(len(data)), machine.Serial),
			}})
		}
	}
	s.runRound(halo.TransportMPI, b)
	s.forRanks(func(id int) {
		r := s.ranks[id]
		for _, m := range b.byDst[id] {
			for _, rec := range decodeExchange(m.Data) {
				r.Atoms.AddLocal(rec.id, rec.typ, rec.pos, rec.vel)
			}
			r.Clock += s.M.Cost.UnpackTime(units.Bytes(len(m.Data)), machine.Serial)
		}
	})
}

// --- neighbor build and forces -----------------------------------------

// neighborMode selects the list flavor for the variant and Newton setting.
func (s *Simulation) neighborMode() neighbor.Mode {
	if !s.Cfg.NewtonOn || s.Cfg.Potential.NeedsFullList() {
		return neighbor.Full
	}
	if s.Var.Pattern == halo.P2P {
		return neighbor.HalfShell
	}
	return neighbor.HalfNewton
}

// buildNeighborLists rebuilds every rank's list and records hold positions.
func (s *Simulation) buildNeighborLists() {
	mode := s.neighborMode()
	s.forRanks(func(id int) {
		r := s.ranks[id]
		r.NL = neighbor.Build(r.Atoms, s.ghCut, mode)
		r.XHold = append(r.XHold[:0], r.Atoms.X[:r.Atoms.NLocal]...)
		r.Clock += s.M.Cost.NeighTime(r.Atoms.Total(), r.NL.Candidates, s.Var.ComputeThreading)
	})
	s.Rebuilds++
}

// computeForces evaluates the potential, including the EAM mid-pair
// exchanges when applicable. Per-rank energy and virial contributions are
// stored for the thermo output.
func (s *Simulation) computeForces() {
	th := s.Var.ComputeThreading
	if mb, ok := s.Cfg.Potential.(potential.ManyBody); ok {
		s.forRanks(func(id int) {
			r := s.ranks[id]
			r.Atoms.ZeroForces()
			r.Atoms.ZeroRho()
			n := mb.AccumulateRho(r.Atoms, r.NL)
			r.Clock += s.M.Cost.EAMPassTime(n, th)
		})
		// Interior atoms (never shipped as ghosts) have complete densities
		// before the exchange; with OverlapEAM their embedding evaluation
		// hides behind the reverse-scalar round (section 3.1's overlap).
		var preComm []float64
		if s.Var.OverlapEAM {
			preComm = s.snapshotClocks()
		}
		s.reverseScalar(func(r *Rank) []float64 { return r.Atoms.Rho })
		s.forRanks(func(id int) {
			r := s.ranks[id]
			embed := mb.FinishRho(r.Atoms)
			r.peLocal = embed
			if s.Var.OverlapEAM {
				boundary := r.boundaryLocalCount()
				interior := r.Atoms.NLocal - boundary
				overlapped := preComm[id] + s.M.Cost.EAMEmbedTime(interior, th)
				if overlapped > r.Clock {
					r.Clock = overlapped
				}
				r.Clock += s.M.Cost.EAMEmbedTime(boundary, th)
			} else {
				r.Clock += s.M.Cost.EAMEmbedTime(r.Atoms.NLocal, th)
			}
		})
		s.forwardScalar(func(r *Rank) []float64 { return r.Atoms.Fp })
		s.forRanks(func(id int) {
			r := s.ranks[id]
			res := mb.ComputeForce(r.Atoms, r.NL)
			r.peLocal += res.PotentialEnergy
			r.virLocal = res.Virial
			r.Clock += s.M.Cost.EAMPassTime(res.Interactions, th)
		})
		return
	}
	s.forRanks(func(id int) {
		r := s.ranks[id]
		r.Atoms.ZeroForces()
		res := s.Cfg.Potential.Compute(r.Atoms, r.NL)
		r.peLocal = res.PotentialEnergy
		r.virLocal = res.Virial
		r.Clock += s.M.Cost.PairTime(res.Interactions, th)
	})
}
