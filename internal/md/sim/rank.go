package sim

import (
	"tofumd/internal/halo"
	"tofumd/internal/md/atom"
	"tofumd/internal/md/domain"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/threadpool"
	"tofumd/internal/trace"
	"tofumd/internal/utofu"
	"tofumd/internal/vec"
)

// link is one directed ghost-communication channel from src to dst. The
// struct is shared by both endpoints: src owns the send list, dst owns the
// ghost range. In the real code the receiver tells the sender its ghost
// offset (recv_ptr) via a piggybacked message during the border stage
// (section 3.4); sharing the struct makes that exchange functional here
// while its *time* is still charged explicitly.
type link struct {
	src, dst *Rank
	// dir is the neighbor offset from src to dst in the rank grid.
	dir vec.I3
	// shift is the PBC position shift src applies when packing.
	shift vec.V3
	// stage3Dim is the dimension (0..2) of a 3-stage link, -1 for p2p.
	stage3Dim int
	// stage3Iter is the forwarding iteration of a multi-shell 3-stage
	// link (0-based).
	stage3Iter int

	// sendList holds src-side atom indices shipped on this link (locals,
	// or earlier-stage ghosts under 3-stage forwarding).
	sendList []int32
	// recvStart/recvCount locate the ghosts on dst.
	recvStart, recvCount int

	// fwd and rev are the communication resources used when src sends
	// (border/forward) and when dst sends back (reverse).
	fwd, rev commRes

	// seq counts uses of the inbox for round-robin buffer rotation.
	seq int
	// inbox holds dst's registered receive buffers (uTofu transport);
	// revInbox holds src's buffers for the reverse direction.
	inbox    *halo.Inbox
	revInbox *halo.Inbox
	// sendBuf is src's packing scratch.
	sendBuf []byte
	// revBuf is dst's packing scratch for the reverse direction.
	revBuf []byte
}

// commRes is the TNI/thread assignment of one sending side.
type commRes struct {
	thread int
	tni    int
}

// inboxOf returns the receive buffers behind an inbox kind: the forward
// inbox on dst, or the reverse inbox on src.
func (l *link) inboxOf(k inboxKind) *halo.Inbox {
	if k == inboxRev {
		return l.revInbox
	}
	return l.inbox
}

// bytesFwd returns the forward-direction wire size for a per-atom payload
// width.
func (l *link) bytesFwd(perAtom int) int { return len(l.sendList) * perAtom }

// Rank is the per-MPI-rank simulation state.
type Rank struct {
	ID    int
	Coord vec.I3
	// Lo and Hi bound the rank's sub-box.
	Lo, Hi vec.V3

	Atoms *atom.Arrays
	NL    *neighbor.List
	// XHold are the local positions at the last neighbor rebuild, for the
	// half-skin displacement check.
	XHold []vec.V3

	// Clock is the rank's virtual time in seconds.
	Clock float64
	// BD is the per-stage time breakdown.
	BD *trace.Breakdown

	// sendLinks are links where this rank is the sender; recvLinks where
	// it is the receiver. A 3-stage link appears in both lists of the two
	// endpoint ranks.
	sendLinks []*link
	recvLinks []*link

	// vcqByTNI holds the rank's allocated VCQs.
	vcqByTNI map[int]*utofu.VCQ

	// plan is the rank's send-side neighbor→thread assignment table; the
	// fail-stop recovery path replans it mid-run when a TNI is quarantined
	// (its Version counts plan generations).
	plan *threadpool.Plan

	// qual decides ghost-send qualification for the sub-box.
	qual *domain.SendQualifier
	// binDirs maps border bins to p2p directions when the fast path is on.
	binDirs [27][]vec.I3
	binOK   bool

	// pe accumulates the rank's force-evaluation result each step.
	peLocal  float64
	virLocal float64

	// dimGhostMark is the ghost watermark at the start of the current
	// 3-stage dimension (iteration-0 send lists scan indices below it).
	dimGhostMark int

	// exchScratch buffers migrating atoms per destination rank.
	exchScratch map[int][]exchRecord

	// maxAtomsEstimate is the theoretical maximum of atoms (locals plus
	// ghost shell) the rank may hold: the pre-registration size of its
	// position array (section 3.4).
	maxAtomsEstimate int
}

// resetPlan clears the per-reneighbor link state of a rank's send links.
func (r *Rank) resetPlan() {
	for _, l := range r.sendLinks {
		l.sendList = l.sendList[:0]
		l.recvStart, l.recvCount = 0, 0
	}
}

// boundaryLocalCount returns how many of the rank's local atoms appear in
// at least one send list — the atoms whose EAM densities receive remote
// contributions during the reverse-scalar exchange.
func (r *Rank) boundaryLocalCount() int {
	seen := make(map[int32]struct{})
	for _, l := range r.sendLinks {
		for _, idx := range l.sendList {
			if int(idx) < r.Atoms.NLocal {
				seen[idx] = struct{}{}
			}
		}
	}
	return len(seen)
}

// totalGhostBytes returns the bytes this rank receives per forward stage.
func (r *Rank) totalGhostBytes(perAtom int) int {
	total := 0
	for _, l := range r.recvLinks {
		total += l.recvCount * perAtom
	}
	return total
}

// totalSendBytes returns the bytes this rank sends per forward stage.
func (r *Rank) totalSendBytes(perAtom int) int {
	total := 0
	for _, l := range r.sendLinks {
		total += len(l.sendList) * perAtom
	}
	return total
}

// linkLess orders links deterministically: by 3-stage dimension and
// iteration, then by direction.
func linkLess(a, b *link) bool {
	if a.stage3Dim != b.stage3Dim {
		return a.stage3Dim < b.stage3Dim
	}
	if a.stage3Iter != b.stage3Iter {
		return a.stage3Iter < b.stage3Iter
	}
	if a.dir.Z != b.dir.Z {
		return a.dir.Z < b.dir.Z
	}
	if a.dir.Y != b.dir.Y {
		return a.dir.Y < b.dir.Y
	}
	return a.dir.X < b.dir.X
}
