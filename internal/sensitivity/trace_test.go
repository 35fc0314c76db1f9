package sensitivity

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// TestSweepSpansFollowContext: an untraced sweep records nothing on the
// process-wide ring; a traced one records a single sensitivity.sweep
// under the caller's span and no span per point.
func TestSweepSpansFollowContext(t *testing.T) {
	t.Parallel()
	before, dropped := len(trace.Default().Spans()), trace.Default().Dropped()
	if _, err := Sweep(0.5, 3, 10, linearSolver(t)); err != nil {
		t.Fatal(err)
	}
	if len(trace.Default().Spans()) != before || trace.Default().Dropped() != dropped {
		t.Error("untraced Sweep recorded spans on trace.Default()")
	}

	rec := trace.New(trace.Config{Capacity: trace.Unbounded})
	root := rec.Start("test", nil)
	ctx := trace.ContextWith(context.Background(), root)
	if _, err := SweepWith(ctx, 0.5, 3, 10, linearSolver(t), SweepOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Name != "sensitivity.sweep" || spans[0].Parent != root.ID() {
		t.Fatalf("%d spans, first %+v; want one sensitivity.sweep under the root", len(spans), spans[0])
	}
	if a, _ := spans[0].Attr("steps"); a.Int != 10 {
		t.Errorf("steps attribute = %v, want 10", a)
	}
}
