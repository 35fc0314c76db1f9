package ctmc

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// TestSteadyStateSpansFollowContext: a solve without a span in its
// context records nothing on the process-wide ring, and a traced context
// gets one ctmc.solve child carrying its four attributes.
func TestSteadyStateSpansFollowContext(t *testing.T) {
	t.Parallel()
	m, _, _ := twoState(t, 0.01, 1)
	before, dropped := len(trace.Default().Spans()), trace.Default().Dropped()
	for _, opts := range []SolveOptions{{}, {Ctx: context.Background()}} {
		if _, err := m.SteadyState(opts); err != nil {
			t.Fatal(err)
		}
	}
	if len(trace.Default().Spans()) != before || trace.Default().Dropped() != dropped {
		t.Error("untraced SteadyState recorded spans on trace.Default()")
	}

	rec := trace.New(trace.Config{Capacity: trace.Unbounded})
	root := rec.Start("test", nil)
	if _, err := m.SteadyState(SolveOptions{Ctx: trace.ContextWith(context.Background(), root)}); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Name != "ctmc.solve" || spans[0].Parent != root.ID() {
		t.Fatalf("%d spans, first %+v; want one ctmc.solve under the root", len(spans), spans[0])
	}
	if got := spans[0]; len(got.Attrs) != 4 || cap(got.Attrs) != 4 ||
		got.AttrString("method") != "dense" {
		t.Errorf("ctmc.solve attributes = %v (cap %d)", got.Attrs, cap(got.Attrs))
	}
	if a, _ := spans[0].Attr("states"); a.Int != 2 {
		t.Errorf("states attribute = %v, want 2", a)
	}
}
