package sim

import (
	"tofumd/internal/halo"
	"tofumd/internal/health"
	"tofumd/internal/trace"
	"tofumd/internal/utofu"
)

// msg is one message of a bulk-synchronous communication round: the halo
// engine's message plus the link it travels on and its uTofu destination.
// The batch hands the embedded halo.Msg to the engine directly, so the
// engine's completion times land where the receiver unpacks.
type msg struct {
	halo.Msg
	// link is the channel; nil for exchange-stage messages.
	link *link
	// inbox selects the uTofu destination: the link's forward inbox,
	// reverse inbox, or the pre-registered position array.
	inbox inboxKind
}

// inboxKind selects the uTofu destination region of a message.
type inboxKind int

const (
	inboxFwd inboxKind = iota
	inboxRev
	inboxXArray
)

// fallbackK is the graceful-degradation threshold: after this many
// consecutive uTofu delivery failures to the same neighbor, traffic to
// that neighbor is routed over the 3-stage-capable MPI path until a
// plan rebuild (border) re-arms the link.
const fallbackK = 3

// newEngine wires the generic halo round engine to the simulation's state:
// rank clocks, VCQ tables, the fallback/health trackers, metrics and trace
// spans all stay on this side of the seam.
func (s *Simulation) newEngine() *halo.Engine {
	return &halo.Engine{
		Fab:   s.fab,
		UTS:   s.uts,
		MPI:   s.mpiComm,
		VCQ:   func(rank, tni int) *utofu.VCQ { return s.ranks[rank].vcqByTNI[tni] },
		Clock: func(rank int) float64 { return s.ranks[rank].Clock },
		Advance: func(rank int, t float64) {
			if r := s.ranks[rank]; t > r.Clock {
				r.Clock = t
			}
		},
		AnyDegraded: func() bool {
			return s.fb.DegradedCount() > 0 || s.health.QuarantinedLinkCount() > 0
		},
		Degraded: func(src, dst int) bool {
			return s.fb.Degraded(src, dst) || s.health.LinkQuarantined(src, dst)
		},
		OnFailure: func(src, dst, tni int, at float64) bool {
			s.fb.RecordFailure(src, dst)
			s.health.RecordLinkFailure(src, dst, tni, at)
			return s.health.RecordTNIFailure(tni, at) == health.Quarantined
		},
		OnSuccess: func(src, dst, tni int) {
			s.fb.RecordSuccess(src, dst)
			s.health.RecordLinkSuccess(src, dst)
			s.health.RecordTNISuccess(tni)
		},
		OnReplan: func() { s.replanTNIs() },
		OnFallback: func(msgs []*halo.Msg) {
			if s.met != nil {
				s.met.fallbackMsgs.Add(int64(len(msgs)))
				s.met.fallbackRounds.Inc()
			}
		},
		OnFallbackDone: func(msgs []*halo.Msg) {
			if s.rec.Enabled() {
				for _, m := range msgs {
					s.rec.Span(trace.SpanEvent{
						Rank: m.Src, Name: "p2p-fallback", Stage: trace.Comm.String(),
						Step: s.step, Start: m.ReadyAt, End: m.Complete,
					})
				}
			}
		},
	}
}

// runRound executes a batch through transport t and advances the
// participating ranks' clocks to their completion times. Payload delivery
// is functional: after the call, receivers read the data from their
// messages (the caller unpacks).
func (s *Simulation) runRound(t halo.Transport, b *batch) {
	if t == halo.TransportUTofu {
		for _, ms := range b.byDst {
			for _, m := range ms {
				m.Region = s.putRegion(m)
			}
		}
	}
	s.eng.RunRound(t, b.msgs)
}

// putRegion resolves the uTofu destination region of a message; DstOff is
// already set (non-zero only for direct-to-array puts).
func (s *Simulation) putRegion(m *msg) *utofu.MemRegion {
	if m.inbox == inboxXArray {
		return s.xRegion[m.Dst]
	}
	return m.link.inboxOf(m.inbox).Regions[m.link.seq%4]
}

// deliver copies a uTofu payload into the receiver's registered inbox
// buffer, making the round-robin rotation functional: the receiver decodes
// from its own registered buffer, not the sender's scratch.
func (s *Simulation) deliver(m *msg) {
	if s.Var.Transport != halo.TransportUTofu || m.inbox == inboxXArray {
		return
	}
	buf := m.link.inboxOf(m.inbox).Bufs[m.link.seq%4]
	copy(buf, m.Data)
	m.Data = buf[:len(m.Data)]
}

// ensureInbox grows (and re-registers) an inbox to hold at least need
// bytes, charging the registration cost to the owning rank unless the
// buffers were pre-registered at their maximum size during setup. Returns
// the virtual-time cost charged.
func (s *Simulation) ensureInbox(owner *Rank, ib *halo.Inbox, need int) float64 {
	cost := ib.Ensure(s.uts, owner.ID, need, s.Var.Preregistered)
	if cost == 0 {
		return 0
	}
	owner.Clock += cost
	if s.rec.Enabled() {
		s.rec.Instant(trace.InstantEvent{
			Rank: owner.ID, Name: "register", Time: owner.Clock,
		})
	}
	return cost
}
