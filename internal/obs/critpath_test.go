package obs

import (
	"strings"
	"testing"

	"tofumd/internal/trace"
)

// msg builds a message with a linear timing chain starting at t0: issue and
// tx take 1us each, the wire 2us, the receive 1us.
func msg(src, dst, tni, thread int, t0 float64) trace.MessageEvent {
	const us = 1e-6
	return trace.MessageEvent{
		Src: src, Dst: dst, SrcNode: src, TNI: tni, Thread: thread,
		DstThread: 0, Bytes: 1024, Iface: "utofu",
		ReadyAt: t0, IssueStart: t0, IssueDone: t0 + us,
		TxStart: t0 + us, TxDone: t0 + 2*us,
		Arrival: t0 + 4*us, RecvComplete: t0 + 5*us,
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	cp := Analyze(nil)
	if cp.Messages != 0 || cp.Segments != 0 {
		t.Fatalf("empty analysis: %+v", cp)
	}
	if cp.PathFrac != 1 || cp.SpeedupBound != 1 {
		t.Errorf("empty analysis should degenerate to frac=1 bound=1, got %f %f", cp.PathFrac, cp.SpeedupBound)
	}
}

func TestAnalyzeSingleMessage(t *testing.T) {
	cp := Analyze([]trace.MessageEvent{msg(0, 1, 0, 0, 0)})
	if cp.Segments != 4 {
		t.Fatalf("segments = %d, want 4", cp.Segments)
	}
	if len(cp.Path) != 4 {
		t.Fatalf("path length = %d, want 4 (issue->tx->wire->recv): %+v", len(cp.Path), cp.Path)
	}
	for i, want := range []string{"issue", "tx", "wire", "recv"} {
		if cp.Path[i].Kind != want {
			t.Errorf("path[%d].Kind = %s, want %s", i, cp.Path[i].Kind, want)
		}
	}
	// One message: everything is on the path, so the bound is exactly 1.
	if cp.PathWork != cp.TotalWork || cp.SpeedupBound != 1 {
		t.Errorf("single message should be fully serial: pathwork %g totalwork %g bound %g",
			cp.PathWork, cp.TotalWork, cp.SpeedupBound)
	}
	// The chain has a 2us gap between TxDone (2us) and Arrival... no: wire
	// spans [TxDone, Arrival], so the chain is gapless and idle is 0.
	if cp.PathIdle != 0 {
		t.Errorf("gapless chain has idle %g, want 0", cp.PathIdle)
	}
}

func TestAnalyzeParallelMessagesBound(t *testing.T) {
	// Two identical chains on disjoint resources: the path covers one chain,
	// so the speedup bound is 2.
	cp := Analyze([]trace.MessageEvent{
		msg(0, 1, 0, 0, 0),
		msg(2, 3, 1, 0, 0),
	})
	if cp.SpeedupBound != 2 {
		t.Errorf("two disjoint chains: bound %g, want 2", cp.SpeedupBound)
	}
	if cp.PathFrac != 0.5 {
		t.Errorf("two disjoint chains: frac %g, want 0.5", cp.PathFrac)
	}
}

func TestAnalyzeResourceQueueing(t *testing.T) {
	// Two messages on the SAME issuing thread and TNI, second starting after
	// the first finishes issuing: the path should chain through the shared
	// resources rather than treating them as independent.
	const us = 1e-6
	a := msg(0, 1, 0, 0, 0)
	b := msg(0, 2, 0, 0, 1*us) // queued behind a on cpu(0,0) and tni(0,0)
	cp := Analyze([]trace.MessageEvent{a, b})
	// The critical path ends at b's recv; walking back through b's chain and
	// then a's issue makes the path longer than either chain alone.
	if got := cp.Path[len(cp.Path)-1]; got.Kind != "recv" || got.Msg != 1 {
		t.Fatalf("path tail = %+v, want recv of msg 1", got)
	}
	if cp.PathWork <= 5*us+1e-12 {
		t.Errorf("queued chains should extend the path beyond one chain: pathwork %g", cp.PathWork)
	}
}

func TestAnalyzeSkipsDroppedAndNacked(t *testing.T) {
	d := msg(0, 1, 0, 0, 0)
	d.Dropped = true
	d.Arrival, d.RecvComplete = 0, 0
	n := msg(2, 3, 1, 0, 0)
	n.Nacked = true
	n.RecvComplete = 0
	cp := Analyze([]trace.MessageEvent{d, n})
	// Dropped: issue+tx. Nacked: issue+tx+wire.
	if cp.Segments != 5 {
		t.Errorf("segments = %d, want 5 (2 for dropped + 3 for nacked)", cp.Segments)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	msgs := []trace.MessageEvent{
		msg(0, 1, 0, 0, 0), msg(0, 2, 0, 0, 1e-6), msg(1, 0, 1, 0, 5e-7), msg(2, 0, 0, 1, 3e-7),
	}
	first := Analyze(msgs)
	for i := 0; i < 10; i++ {
		again := Analyze(msgs)
		if len(again.Path) != len(first.Path) || again.PathWork != first.PathWork || again.PathIdle != first.PathIdle {
			t.Fatalf("run %d differs: %+v vs %+v", i, again, first)
		}
		for j := range again.Path {
			if again.Path[j] != first.Path[j] {
				t.Fatalf("run %d path[%d] differs: %+v vs %+v", i, j, again.Path[j], first.Path[j])
			}
		}
	}
}

func TestReportAndExplain(t *testing.T) {
	msgs := []trace.MessageEvent{msg(0, 1, 0, 0, 0), msg(1, 0, 1, 0, 2e-6)}
	rec := trace.NewRecorder()
	for _, m := range msgs {
		rec.Message(m)
	}
	rec.Span(trace.SpanEvent{Rank: 0, Name: "pair", Stage: "Pair", Step: 1, Start: 0, End: 3e-6})
	rec.Span(trace.SpanEvent{Rank: 0, Name: "border", Stage: "Comm", Step: 1, Start: 3e-6, End: 4e-6})
	out := Explain(rec, 5)
	for _, want := range []string{
		"Critical path over 2 messages",
		"speedup bound",
		"MD stage spans",
		"Pair",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q in:\n%s", want, out)
		}
	}
	// No trace: explain says so instead of crashing.
	out = Explain(nil, 5)
	if !strings.Contains(out, "run with tracing") {
		t.Errorf("traceless Explain wrong:\n%s", out)
	}
}

func TestStageShares(t *testing.T) {
	spans := []trace.SpanEvent{
		{Rank: 0, Stage: "Pair", Start: 0, End: 3e-3},
		{Rank: 1, Stage: "Pair", Start: 0, End: 2e-3},
		{Rank: 0, Stage: "Comm", Start: 3e-3, End: 4e-3},
	}
	names, totals := StageShares(spans)
	if len(names) != 2 || names[0] != "Pair" || names[1] != "Comm" {
		t.Fatalf("names = %v, want [Pair Comm] (largest total first)", names)
	}
	if totals[0] != 5e-3 || totals[1] != 1e-3 {
		t.Errorf("totals = %v, want [0.005 0.001]", totals)
	}
	names, _ = StageShares(nil)
	if len(names) != 0 {
		t.Errorf("empty spans: names = %v", names)
	}
}
