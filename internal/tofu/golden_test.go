package tofu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// haloRound builds one halo-like uTofu round on the fabric: every rank sends
// a 256-byte message to each of its six axis neighbors on another node (the
// default node block is 2x2x1 ranks, so +-2 in x/y and +-1 in z cross a node
// boundary), one thread and one TNI per direction.
func haloRound(f *Fabric) []*Transfer {
	dirs := []vec.I3{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}, {Z: 1}, {Z: -1}}
	trs := make([]*Transfer, 0, f.Map.Ranks()*len(dirs))
	for src := 0; src < f.Map.Ranks(); src++ {
		for di, d := range dirs {
			trs = append(trs, &Transfer{
				Src: src, Dst: f.Map.NeighborRank(src, d), Bytes: 256,
				Thread: di, TNI: di, VCQ: src<<3 | di,
			})
		}
	}
	return trs
}

// mixedRound builds a round exercising every cost path: inter-node puts in
// both directions, intra-node puts, gets, multiple threads/TNIs/VCQs and
// staggered ReadyAt times. For MPI, messages above 256 bytes use the
// two-step protocol.
func mixedRound(f *Fabric, iface Interface) []*Transfer {
	var out []*Transfer
	for r := 0; r < f.Map.Ranks(); r++ {
		xp := f.Map.NeighborRank(r, vec.I3{X: 2})
		xm := f.Map.NeighborRank(r, vec.I3{X: -2})
		yp := f.Map.NeighborRank(r, vec.I3{Y: 2})
		in := f.Map.NeighborRank(r, vec.I3{X: 1}) // same node (2x2x1 block)
		out = append(out,
			&Transfer{Src: r, Dst: xp, TNI: r % 6, VCQ: r << 3, Thread: 0, Bytes: 64},
			&Transfer{Src: r, Dst: xm, TNI: (r + 1) % 6, VCQ: r<<3 | 1, Thread: 1, Bytes: 700},
			&Transfer{Src: r, Dst: yp, TNI: (r + 2) % 6, VCQ: r<<3 | 2, Thread: 2, Bytes: 128, IsGet: true},
			&Transfer{Src: r, Dst: in, TNI: (r + 3) % 6, VCQ: r<<3 | 3, Thread: 0, Bytes: 32, ReadyAt: 0.1e-6},
		)
	}
	if iface == IfaceMPI {
		for _, tr := range out {
			tr.TwoStep = tr.Bytes > 256
		}
	}
	return out
}

// roundDigest hashes the bits of every transfer's timing outputs in
// transfer order.
func roundDigest(trs []*Transfer) string {
	h := sha256.New()
	var b [8]byte
	for _, tr := range trs {
		for _, v := range []float64{tr.IssueDone, tr.Arrival, tr.RecvComplete} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHaloRoundGolden pins the absolute per-transfer timings of the
// 2,304-transfer halo round on the 96-node (4x6x4) tile. Any change to the
// event order, the cost model or the fabric's resource bookkeeping moves
// the digest; an intentional model change updates it in the same commit.
func TestHaloRoundGolden(t *testing.T) {
	const want = "f713c5770cd3d4cbb076eea4b46da298f07ce702e53b043a8707b076a19a14d9"
	f := testFabric(t, vec.I3{X: 4, Y: 6, Z: 4})
	trs := haloRound(f)
	if len(trs) != 2304 {
		t.Fatalf("round has %d transfers, want 2304", len(trs))
	}
	if err := f.RunRound(trs, IfaceUTofu); err != nil {
		t.Fatal(err)
	}
	if got := roundDigest(trs); got != want {
		t.Fatalf("halo round digest = %s, want %s", got, want)
	}
	last := 0.0
	for _, tr := range trs {
		last = math.Max(last, tr.Arrival)
	}
	if last != 1.2700000000000001e-06 {
		t.Fatalf("latest arrival = %v, want 1.2700000000000001e-06", last)
	}
	// The fabric is reusable: a second round on the same fabric must land
	// on the same timings.
	again := haloRound(f)
	if err := f.RunRound(again, IfaceUTofu); err != nil {
		t.Fatal(err)
	}
	if got := roundDigest(again); got != want {
		t.Fatalf("repeated round digest = %s, want %s", got, want)
	}
}

// TestMixedRoundGolden pins the absolute timings of the mixed round on a
// 4x4x4 torus for both interfaces, and checks that a normal round drains
// the engine: des_abandoned_events stays zero.
func TestMixedRoundGolden(t *testing.T) {
	for _, c := range []struct {
		iface Interface
		want  string
	}{
		{IfaceUTofu, "dd93fe43e4ce2c983fd604a275420b347a6ab5ec2151d5aba1464fbc509d025d"},
		{IfaceMPI, "31f865961a2445bdba5010863ce96e5d9402f253b5e9ae6632ef556cf9cccc40"},
	} {
		f := testFabric(t, vec.I3{X: 4, Y: 4, Z: 4})
		reg := metrics.New()
		f.SetMetrics(reg)
		trs := mixedRound(f, c.iface)
		if err := f.RunRound(trs, c.iface); err != nil {
			t.Fatalf("%v: %v", c.iface, err)
		}
		if got := roundDigest(trs); got != c.want {
			t.Errorf("%v: mixed round digest = %s, want %s", c.iface, got, c.want)
		}
		if got := reg.Counter("des_abandoned_events", "total").Value(); got != 0 {
			t.Errorf("%v: des_abandoned_events = %v, want 0", c.iface, got)
		}
	}
}

// TestTracedRoundGolden pins every MessageEvent of the traced mixed round,
// for both interfaces, fault-free and under transient faults (drops, NACKs,
// stalls, degradation). The trace carries the intermediate timing chain
// (IssueStart, TxStart, TxDone, VCQSwitch) that the transfer digests above
// do not see, so this catches a change in how the fabric tracks those
// values even when the transfer outputs stay put.
func TestTracedRoundGolden(t *testing.T) {
	const faults = "drop=0.05,nack=0.05,stall=0.05@1e-7,degrade=0.2@3x1e-6,seed=7"
	for _, c := range []struct {
		iface  Interface
		faults string
		want   string
	}{
		{IfaceUTofu, "", "cd091b7f89dca43bdc2b22d4bc88418ffd5b819cda973f7b30597ca55ddfa897"},
		{IfaceMPI, "", "d13542981bdee39f8fea2f4442810be3711d20a3cfe6cc6b6e227b53c6e38906"},
		{IfaceUTofu, faults, "1f1c8123677a3b14fe5479fea319576fdbead8dd8afd3eee06eeffc913a53676"},
		{IfaceMPI, faults, "70ba8294bfcfc14e073806e9f1c6a13f62e3aa48c7dbe8cffafa3f1f99beeda2"},
	} {
		f := testFabric(t, vec.I3{X: 4, Y: 4, Z: 4})
		spec, err := faultinject.ParseSpec(c.faults)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Enabled() {
			f.Faults = faultinject.New(spec)
		}
		rec := trace.NewRecorder()
		f.Rec = rec
		f.RecBase = 1e-6
		trs := mixedRound(f, c.iface)
		if err := f.RunRound(trs, c.iface); err != nil {
			t.Fatalf("%v %q: %v", c.iface, c.faults, err)
		}
		msgs := rec.Messages()
		if len(msgs) != len(trs) {
			t.Fatalf("%v %q: traced %d messages, want %d", c.iface, c.faults, len(msgs), len(trs))
		}
		failed := 0
		h := sha256.New()
		for _, m := range msgs {
			fmt.Fprintf(h, "%+v\n", m)
			if m.Dropped || m.Nacked {
				failed++
			}
		}
		if (failed > 0) != spec.Enabled() {
			t.Errorf("%v %q: %d failed messages", c.iface, c.faults, failed)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%v %q: traced round digest = %s, want %s", c.iface, c.faults, got, c.want)
		}
	}
}
