package tofu

import (
	"fmt"
	"math"
	"slices"

	"tofumd/internal/des"
	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
	"tofumd/internal/units"
)

// Transfer is one message of a communication round. The caller fills the
// routing and sizing fields; RunRound fills the timing outputs. Payload (if
// any) is carried untouched — the fabric only computes time.
type Transfer struct {
	// Src and Dst are rank ids in the fabric's rank map.
	Src, Dst int
	// TNI is the index of the Tofu network interface on the source node
	// that transmits the message.
	TNI int
	// VCQ identifies the virtual control queue issuing the command; used to
	// charge the VCQ-switch overhead. Typically (rank<<3)|threadLocalCQ.
	VCQ int
	// Thread identifies the issuing CPU thread within the source rank;
	// injections by the same thread serialize with the injection gap.
	Thread int
	// DstThread identifies the receiver-side polling context (the thread
	// that owns the target VCQ's receive queue). Completions handled by
	// the same context serialize with the receive overhead — with one
	// polling thread, 124 incoming messages cost 124 serial completions,
	// the effect that sinks p2p in the paper's Fig. 15.
	DstThread int
	// Bytes is the payload size on the wire.
	Bytes int
	// ReadyAt is the sender virtual time at which the message is packed and
	// ready to inject.
	ReadyAt float64
	// TwoStep marks the MPI unknown-length protocol (a length message
	// followed by the payload, section 3.5.1); it costs an extra injection
	// gap at the sender and an extra match at the receiver.
	TwoStep bool
	// IsGet marks a one-sided read: the descriptor travels to the remote
	// TNI first and the payload returns, doubling the latency term.
	IsGet bool
	// Attempt counts prior transmissions of the same logical message (0 for
	// the first try); carried into the trace so retransmissions are visible.
	Attempt int
	// Payload is the functional data delivered to the receiver.
	Payload []byte

	// IssueDone is when the issuing thread's CPU is free again.
	IssueDone float64
	// Arrival is when the last payload byte is visible in receiver memory.
	Arrival float64
	// RecvComplete is Arrival plus the receiver-side software overhead
	// (completion-queue poll for uTofu, tag matching and copy for MPI). For
	// two-sided transports the receiver must also be ready; the transport
	// layer maxes this with its own clock.
	RecvComplete float64
	// Dropped reports the payload was lost in the torus (fault injection):
	// no delivery, Arrival and RecvComplete stay 0.
	Dropped bool
	// Nacked reports the receiving TNI rejected the delivery with an
	// MRQ-overflow NACK: Arrival is when the rejected delivery reached the
	// receiver, RecvComplete stays 0.
	Nacked bool
}

// Failed reports whether the transfer delivered nothing usable and must be
// retransmitted by the layer above.
func (tr *Transfer) Failed() bool { return tr.Dropped || tr.Nacked }

// Fabric simulates one TofuD allocation: the torus, its nodes' TNIs and the
// timing of message rounds. A Fabric is not safe for concurrent rounds; the
// bulk-synchronous simulation runs rounds one at a time, each on the
// fabric's serial event queue.
type Fabric struct {
	Params Params
	Map    *topo.RankMap

	// Rec, when non-nil, receives one MessageEvent per transfer. RecBase
	// offsets the fabric's round-relative times into the caller's absolute
	// clock; callers running rounds at absolute time t set RecBase = t
	// before RunRound. A nil recorder costs one pointer check per message.
	Rec     *trace.Recorder
	RecBase float64

	// Faults, when non-nil, injects deterministic faults (drops, NACKs,
	// stalls, link degradation) into the transfer path. A nil model is the
	// fault-free fabric.
	Faults *faultinject.Model

	// met caches metric handles (see SetMetrics); nil when metrics are off.
	met *fabricMetrics

	// eng runs every round's events: typed records, dispatched by fire.
	eng des.Queue[fabEvent]
	// state holds the round-scoped state, reset at every round start.
	state roundState

	// tniFree[node*TNIsPerNode+tni] is the time the TNI engine frees up;
	// tniLastVCQ tracks the last VCQ served per TNI (unused slot = -1).
	tniFree    []float64
	tniLastVCQ []int
}

// Fabric event kinds. Every event is a kind plus an index, so the queue
// holds no pointers and scheduling allocates nothing.
const (
	// evIssue asks thread slot idx to issue its next queued transfer.
	evIssue uint8 = iota
	// evIssued fires when the issuing thread is done with transfer idx:
	// the command goes to the TNI engine (transmit) and the thread starts
	// on its next transfer (issueNext). The two always fire back to back at
	// the same time, so one event carries both.
	evIssued
	// evRecv is the arrival of transfer idx at its completion context.
	evRecv
)

// fabEvent is one queued fabric event.
type fabEvent struct {
	kind uint8
	idx  int32
}

// roundState is the per-round state. Per-thread state lives in dense slots
// indexed rank*nt + thread; only the slots a round touches are reset, and
// every buffer is reused across rounds.
type roundState struct {
	// trs and iface are the running round's transfers and interface; trs
	// is dropped after the round so the caller's transfers are not kept.
	trs   []*Transfer
	iface Interface
	// gap, sendOv and recvOv are the interface's injection gap and send and
	// receive overheads.
	gap, sendOv, recvOv float64
	// nt is the slot stride: 1 + the round's largest Thread or DstThread.
	nt int
	// slots[rank*nt+thread] is the state of one (rank, thread) pair.
	slots []threadSlot
	// active lists the slots with transfers to issue, in ascending order.
	active []int32
	// order holds the transfer indices counting-sorted by issuing slot, in
	// the caller's order within a slot (the order the comm plan issues
	// messages): slot s's not-yet-issued FIFO is order[head:end].
	order []int32
	// msgs holds the trace-only values of each transfer; it has one entry
	// per transfer while Rec is enabled and none otherwise.
	msgs []msgTrace
}

// threadSlot is the per-round state of one (rank, thread) pair. The zero
// value is the round-start state.
type threadSlot struct {
	// head and end delimit the thread's not-yet-issued transfers in order.
	head, end int32
	// lastVCQ is the VCQ of the thread's previous issue, set when hasVCQ;
	// a change charges the VCQ-switch overhead.
	lastVCQ int
	hasVCQ  bool
	// recvFree is when the thread's receive (polling) context frees up.
	recvFree float64
}

// msgTrace holds the timing-chain values of one transfer that only the
// trace reports. The MessageEvents are built from them and the transfer's
// outputs after the round and emitted in transfer order, so the trace lists
// messages in the caller's order, independent of event interleaving.
type msgTrace struct {
	issueStart, txStart, txDone float64
	vcqSwitch                   bool
	// done marks a transfer that completed or failed; only those are traced.
	done bool
}

// slot returns the slot index of (rank, thread) in the current round.
func (st *roundState) slot(rank, thread int) int32 { return int32(rank*st.nt + thread) }

// fabricMetrics caches the fabric's metric handles so the per-message cost
// is an atomic add, not a registry lookup. Per-TNI families are indexed by
// TNI number and aggregate across nodes; distributions are labeled by the
// software interface ("utofu"/"mpi").
type fabricMetrics struct {
	msgs, bytes, switches []*metrics.Counter    // per TNI index
	stall                 [2]*metrics.Histogram // per Interface
	hops                  [2]*metrics.Histogram // per Interface
	// Injected-fault counters (fault injection only; zero otherwise).
	drops, nacks, faultStalls *metrics.Counter
	// abandoned counts events a round left undrained (see RunRound); any
	// nonzero value is a fabric bug surfaced instead of silently dropped.
	abandoned *metrics.Counter
}

// SetMetrics enables (or, with a nil registry, disables) metric collection.
// Metrics only observe the computed virtual times: timing outputs are
// bit-identical with metrics on or off.
func (f *Fabric) SetMetrics(reg *metrics.Registry) {
	if !reg.Enabled() {
		f.met = nil
		return
	}
	m := &fabricMetrics{}
	for tni := 0; tni < f.Params.TNIsPerNode; tni++ {
		label := fmt.Sprintf("tni%d", tni)
		m.msgs = append(m.msgs, reg.Counter("fabric_tni_msgs", label))
		m.bytes = append(m.bytes, reg.Counter("fabric_tni_bytes", label))
		m.switches = append(m.switches, reg.Counter("fabric_tni_vcq_switches", label))
	}
	hopBuckets := metrics.LinearBuckets(0, 1, 33)
	for _, iface := range []Interface{IfaceUTofu, IfaceMPI} {
		m.stall[iface] = reg.Histogram("fabric_inject_stall_seconds", iface.String())
		m.hops[iface] = reg.HistogramWith("fabric_msg_hops", iface.String(), hopBuckets)
	}
	m.drops = reg.Counter("fabric_faults", "drops")
	m.nacks = reg.Counter("fabric_faults", "nacks")
	m.faultStalls = reg.Counter("fabric_faults", "stalls")
	m.abandoned = reg.Counter("des_abandoned_events", "total")
	f.met = m
}

// NewFabric builds a fabric over the rank map with the given parameters.
func NewFabric(m *topo.RankMap, p Params) *Fabric {
	nodes := m.Torus.Nodes()
	f := &Fabric{
		Params:     p,
		Map:        m,
		tniFree:    make([]float64, nodes*p.TNIsPerNode),
		tniLastVCQ: make([]int, nodes*p.TNIsPerNode),
	}
	for i := range f.tniLastVCQ {
		f.tniLastVCQ[i] = -1
	}
	return f
}

// schedule queues an event. Every time the fabric computes is monotone by
// construction (costs are non-negative), so a past time is an arithmetic
// bug, which ScheduleAt rejects instead of clamping.
func (f *Fabric) schedule(t float64, kind uint8, idx int32) {
	if err := f.eng.ScheduleAt(t, fabEvent{kind: kind, idx: idx}); err != nil {
		panic("tofu: " + err.Error())
	}
}

// countAbandoned records events stranded in the queue.
func (f *Fabric) countAbandoned(n int) {
	if n > 0 && f.met != nil {
		f.met.abandoned.Add(int64(n))
	}
}

// flushTrace emits one MessageEvent per completed or failed transfer, in
// transfer order.
func (f *Fabric) flushTrace() {
	st := &f.state
	b := f.RecBase
	for i, m := range st.msgs {
		if !m.done {
			continue
		}
		tr := st.trs[i]
		srcNode, _ := f.Map.NodeOf(tr.Src)
		ev := trace.MessageEvent{
			Src: tr.Src, Dst: tr.Dst, SrcNode: srcNode,
			TNI: tr.TNI, VCQ: tr.VCQ, Thread: tr.Thread, DstThread: tr.DstThread,
			Bytes: tr.Bytes, Hops: f.Map.Hops(tr.Src, tr.Dst), Iface: st.iface.String(),
			TwoStep: tr.TwoStep, IsGet: tr.IsGet, VCQSwitch: m.vcqSwitch,
			Attempt: tr.Attempt, Dropped: tr.Dropped, Nacked: tr.Nacked,
			ReadyAt: b + tr.ReadyAt, IssueStart: b + m.issueStart,
			IssueDone: b + tr.IssueDone, TxStart: b + m.txStart, TxDone: b + m.txDone,
		}
		// A drop never reaches the receiver; a NACK reaches it but never
		// completes.
		if !tr.Dropped {
			ev.Arrival = b + tr.Arrival
		}
		if !tr.Failed() {
			ev.RecvComplete = b + tr.RecvComplete
		}
		f.Rec.Message(ev)
	}
}

// WireTime returns the bandwidth serialization time of a message.
func (f *Fabric) WireTime(bytes units.Bytes) float64 {
	return float64(bytes) / f.Params.LinkBandwidth
}

// Latency returns the end-to-end network latency for a given hop count,
// excluding bandwidth serialization and software overheads.
func (f *Fabric) Latency(hops int) float64 {
	return f.Params.BaseLatency + float64(hops)*f.Params.HopLatency
}

// PutLatency returns the full one-sided put latency for a small message over
// the given hop count: software issue + wire + network. For 1 hop and 8
// bytes this is the 0.49us figure of the TofuD paper.
func (f *Fabric) PutLatency(hops int, bytes units.Bytes) float64 {
	return f.Params.UTofuPutOverhead + f.WireTime(bytes) + f.Latency(hops)
}

// RunRound simulates one communication round: all transfers are injected
// respecting per-thread injection gaps, serialized on their TNI engines, and
// routed across the torus. Timing outputs are written into the transfers.
// Virtual time within the round starts at 0; ReadyAt values are relative to
// the round start. The round is deterministic for a given transfer slice.
//
// RunRound panics on a malformed transfer: a TNI outside the node's
// interfaces, a Src or Dst outside the rank map, or a negative Thread or
// DstThread.
//
// RunRound returns an error when the event queue does not drain: events
// stranded from a previous round (which Reset would silently discard — a
// lost retransmit timer or in-flight put vanishing without trace), or a
// round exceeding its event budget (a scheduling cycle). Both increment the
// des_abandoned_events counter; the transfers' timing outputs are not
// trustworthy after an error.
func (f *Fabric) RunRound(transfers []*Transfer, iface Interface) error {
	if len(transfers) == 0 {
		return nil
	}
	p := &f.Params
	if n := f.eng.Len(); n != 0 {
		f.countAbandoned(n)
		return fmt.Errorf("tofu: %d events stranded from a previous round at round start (%d abandoned)", n, n)
	}
	ranks := f.Map.Ranks()
	maxThread := 0
	for _, tr := range transfers {
		switch {
		case tr.TNI < 0 || tr.TNI >= p.TNIsPerNode:
			panic(fmt.Sprintf("tofu: transfer TNI %d out of range", tr.TNI))
		case tr.Src < 0 || tr.Src >= ranks:
			panic(fmt.Sprintf("tofu: transfer Src %d outside [0, %d)", tr.Src, ranks))
		case tr.Dst < 0 || tr.Dst >= ranks:
			panic(fmt.Sprintf("tofu: transfer Dst %d outside [0, %d)", tr.Dst, ranks))
		case tr.Thread < 0:
			panic(fmt.Sprintf("tofu: transfer Thread %d is negative", tr.Thread))
		case tr.DstThread < 0:
			panic(fmt.Sprintf("tofu: transfer DstThread %d is negative", tr.DstThread))
		}
		maxThread = max(maxThread, tr.Thread, tr.DstThread)
	}
	if maxThread >= math.MaxInt32/ranks {
		panic(fmt.Sprintf("tofu: thread id %d needs more than 2^31 thread slots over %d ranks", maxThread, ranks))
	}
	f.eng.Reset()
	for i := range f.tniFree {
		f.tniFree[i] = 0
		f.tniLastVCQ[i] = -1
	}
	// Each RunRound is one fault round: retransmission waves re-run the
	// round and therefore draw from fresh (seed, round, link) streams.
	f.Faults.BeginRound()

	st := &f.state
	st.trs, st.iface, st.nt = transfers, iface, maxThread+1
	st.gap, st.sendOv, st.recvOv = p.InjectGap(iface), p.SendOverhead(iface), p.RecvOverhead(iface)
	st.slots = resize(st.slots, ranks*st.nt)
	// Clear the transfers' fault flags and reset the slots the round
	// touches: issuing threads (which also harvest their gets'
	// completions) and receive contexts.
	for _, tr := range transfers {
		tr.Dropped, tr.Nacked = false, false
		st.slots[st.slot(tr.Src, tr.Thread)] = threadSlot{}
		st.slots[st.slot(tr.Dst, tr.DstThread)] = threadSlot{}
	}
	// Counting sort of the transfer indices by issuing slot: count, lay out
	// the active slots in order, then place the indices.
	st.active = st.active[:0]
	for _, tr := range transfers {
		s := st.slot(tr.Src, tr.Thread)
		if st.slots[s].end == 0 {
			st.active = append(st.active, s)
		}
		st.slots[s].end++
	}
	slices.Sort(st.active)
	var next int32
	for _, s := range st.active {
		sl := &st.slots[s]
		n := sl.end
		sl.head, sl.end = next, next
		next += n
	}
	st.order = resize(st.order, len(transfers))
	for i, tr := range transfers {
		sl := &st.slots[st.slot(tr.Src, tr.Thread)]
		st.order[sl.end] = int32(i)
		sl.end++
	}
	if f.Rec.Enabled() {
		st.msgs = resize(st.msgs, len(transfers))
		clear(st.msgs)
	} else {
		st.msgs = st.msgs[:0]
	}

	for _, s := range st.active {
		f.schedule(0, evIssue, s)
	}
	// Each slot is seeded once, and each transfer fires at most one
	// ready-wait issue, one issued and one receive event, so a correct
	// round drains within this budget; hitting it means a scheduling cycle
	// and stops what would otherwise be a livelock.
	budget := 3*len(transfers) + len(st.active)
	_, runErr := f.eng.RunBudget(budget, f.fire)
	if f.Rec.Enabled() {
		f.flushTrace()
	}
	st.trs = nil
	if runErr != nil {
		n := f.eng.Len()
		f.countAbandoned(n)
		return fmt.Errorf("tofu: round did not drain (%d events abandoned): %w", n, runErr)
	}
	if n := f.eng.Len(); n != 0 {
		f.countAbandoned(n)
		return fmt.Errorf("tofu: %d events abandoned at end of round", n)
	}
	return nil
}

// resize returns s with length n, reallocating only when its capacity is
// short. Existing elements are kept, not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fire dispatches one fabric event.
func (f *Fabric) fire(ev fabEvent) {
	switch ev.kind {
	case evIssue:
		f.issueNext(ev.idx)
	case evIssued:
		f.transmit(ev.idx)
		tr := f.state.trs[ev.idx]
		f.issueNext(f.state.slot(tr.Src, tr.Thread))
	case evRecv:
		f.receive(ev.idx)
	}
}

// issueNext starts the next queued transfer of thread slot s, if any: the
// thread pays the injection gap, the send overhead and any VCQ switch, and
// hands the command to the TNI engine when done.
func (f *Fabric) issueNext(s int32) {
	st := &f.state
	sl := &st.slots[s]
	if sl.head == sl.end {
		return
	}
	i := st.order[sl.head]
	tr := st.trs[i]
	start := f.eng.Now()
	if tr.ReadyAt > start {
		// The thread idles until the message is packed; the transfer stays
		// at the head of its FIFO.
		f.schedule(tr.ReadyAt, evIssue, s)
		return
	}
	sl.head++
	if f.met != nil {
		f.met.stall[st.iface].Observe(start - tr.ReadyAt)
	}
	cost := st.gap + st.sendOv
	if tr.TwoStep {
		cost += st.gap // separate length message
	}
	if sl.hasVCQ && sl.lastVCQ != tr.VCQ {
		cost += f.Params.VCQSwitchOverhead
	}
	sl.lastVCQ, sl.hasVCQ = tr.VCQ, true
	done := start + cost
	tr.IssueDone = done
	if f.Rec.Enabled() {
		st.msgs[i].issueStart = start
	}
	f.schedule(done, evIssued, i)
}

// transmit serializes transfer i's command on the source TNI engine,
// computes the network arrival time and schedules the receive completion.
func (f *Fabric) transmit(i int32) {
	p := &f.Params
	st := &f.state
	tr := st.trs[i]
	iface := st.iface
	srcNode, _ := f.Map.NodeOf(tr.Src)
	dstNode, _ := f.Map.NodeOf(tr.Dst)
	idx := srcNode*p.TNIsPerNode + tr.TNI

	txStart := f.eng.Now()
	if f.tniFree[idx] > txStart {
		txStart = f.tniFree[idx]
	}
	// Fault verdict for this transmission: drawn per (seed, round, link),
	// judged at the time the TNI engine would start serving the command.
	fo := f.Faults.Judge(tr.Src, tr.Dst, iface == IfaceUTofu, txStart)
	// Permanent fail-stop faults override the transient draws without
	// consuming any: a dead TNI, a severed link or a fail-stopped endpoint
	// loses the payload in the torus. Judged against the caller's absolute
	// clock (RecBase + engine time), which is what the spec's "@T" means.
	// One-sided traffic only — the MPI stack's system software re-binds its
	// injection queues away from dead interfaces and routes, which is what
	// makes the per-neighbor MPI fallback a recovery rather than a retry.
	if iface == IfaceUTofu {
		abs := f.RecBase + txStart
		if f.Faults.TNIFailed(tr.TNI, abs) ||
			f.Faults.LinkFailed(tr.Src, tr.Dst, abs) ||
			f.Faults.RankFailed(tr.Src, abs) || f.Faults.RankFailed(tr.Dst, abs) {
			fo.Drop, fo.Nack = true, false
		}
	}
	if fo.Stall > 0 {
		// Transient TNI stall: the engine pauses before the command.
		txStart += fo.Stall
		if f.met != nil {
			f.met.faultStalls.Inc()
		}
	}
	engine := p.TNIEngineGap
	wire := f.WireTime(units.Bytes(tr.Bytes)) * fo.WireFactor
	busy := engine
	if wire > busy {
		busy = wire
	}
	// The engine pays the hardware-side VCQ switch gap whenever the command
	// comes from a different VCQ than the previous one it served: the
	// descriptor-ring context must be refetched. This is what degrades
	// spraying many VCQs over shared TNIs beyond the sender-side software
	// cost already charged in issueNext.
	vcqSwitch := f.tniLastVCQ[idx] >= 0 && f.tniLastVCQ[idx] != tr.VCQ
	if vcqSwitch {
		busy += p.TNIVCQSwitchGap
	}
	txDone := txStart + busy
	f.tniFree[idx] = txDone
	f.tniLastVCQ[idx] = tr.VCQ
	if f.Rec.Enabled() {
		m := &st.msgs[i]
		m.txStart, m.txDone, m.vcqSwitch = txStart, txDone, vcqSwitch
	}

	if f.met != nil {
		f.met.msgs[tr.TNI].Inc()
		f.met.bytes[tr.TNI].Add(int64(tr.Bytes))
		if vcqSwitch {
			f.met.switches[tr.TNI].Inc()
		}
		hops := 0
		if srcNode != dstNode {
			hops = f.Map.Hops(tr.Src, tr.Dst)
		}
		f.met.hops[iface].Observe(float64(hops))
	}

	if srcNode == dstNode {
		// Intra-node: through the on-chip ring bus, no torus hops. The TNI
		// engine cost still applies (the implementation uses the NIC
		// loopback path for uniformity).
		tr.Arrival = txDone + p.BaseLatency/2
	} else {
		hops := f.Map.Hops(tr.Src, tr.Dst)
		lat := f.Latency(hops)
		if iface == IfaceMPI && units.Bytes(tr.Bytes) > p.MPIEagerLimit {
			// Rendezvous: RTS/CTS round trip before the payload moves.
			lat += 2 * f.Latency(hops)
		}
		if tr.IsGet {
			// The read request travels out before the payload returns.
			lat += f.Latency(hops)
		}
		tr.Arrival = txDone + lat
	}
	if fo.Failed() {
		// The TNI engine was charged (the command did transmit); the payload
		// never completes at the receiver. A drop is lost in the torus; a
		// NACK reaches the receiver and is rejected by the MRQ.
		tr.Dropped, tr.Nacked = fo.Drop, fo.Nack
		if fo.Drop {
			tr.Arrival = 0
		}
		tr.RecvComplete = 0
		if f.met != nil {
			if fo.Drop {
				f.met.drops.Inc()
			} else {
				f.met.nacks.Inc()
			}
		}
		if f.Rec.Enabled() {
			st.msgs[i].done = true
		}
		return
	}
	f.schedule(tr.Arrival, evRecv, i)
}

// receive completes transfer i on its polling context, which handles
// completions one at a time. For a get, the payload returns to the issuer,
// whose own context harvests the TCQ completion.
func (f *Fabric) receive(i int32) {
	p := &f.Params
	st := &f.state
	tr := st.trs[i]
	cost := st.recvOv
	if !p.CacheInjection {
		cost += p.CacheMissPenalty
	}
	if tr.TwoStep {
		cost += st.recvOv // match the length message too
	}
	ctx := &st.slots[st.slot(tr.Dst, tr.DstThread)]
	if tr.IsGet {
		ctx = &st.slots[st.slot(tr.Src, tr.Thread)]
	}
	start := f.eng.Now()
	if ctx.recvFree > start {
		start = ctx.recvFree
	}
	tr.RecvComplete = start + cost
	ctx.recvFree = tr.RecvComplete
	if f.Rec.Enabled() {
		st.msgs[i].done = true
	}
}
