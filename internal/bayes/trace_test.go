package bayes

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// TestSolveSpansFollowContext: an untraced Solve records nothing on the
// process-wide ring; a traced one records one bayes.solve under the
// caller's span.
func TestSolveSpansFollowContext(t *testing.T) {
	t.Parallel()
	b := NewBuilder("pair")
	net, err := b.Build(b.KOfN("sys", 1, b.Basic("a", 0.9), b.Basic("b", 0.9)))
	if err != nil {
		t.Fatal(err)
	}
	before, dropped := len(trace.Default().Spans()), trace.Default().Dropped()
	if _, err := net.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(trace.Default().Spans()) != before || trace.Default().Dropped() != dropped {
		t.Error("untraced Solve recorded spans on trace.Default()")
	}

	rec := trace.New(trace.Config{Capacity: trace.Unbounded})
	root := rec.Start("test", nil)
	if _, err := net.Solve(trace.ContextWith(context.Background(), root)); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Name != "bayes.solve" || spans[0].Parent != root.ID() {
		t.Fatalf("%d spans, first %+v; want one bayes.solve under the root", len(spans), spans[0])
	}
	if a, ok := spans[0].Attr("variables"); !ok || a.Int != int64(net.Variables()) {
		t.Errorf("variables attribute = %v, want %d", a, net.Variables())
	}
}
