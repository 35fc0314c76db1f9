package uncertainty

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// TestRunSpansFollowContext: an untraced analysis records nothing on the
// process-wide ring; a traced one records a single uncertainty.run under
// the caller's span and no span per sample.
func TestRunSpansFollowContext(t *testing.T) {
	t.Parallel()
	before, dropped := len(trace.Default().Spans()), trace.Default().Dropped()
	if _, err := Run(testRanges(), sumSolver, Options{Samples: 200, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if len(trace.Default().Spans()) != before || trace.Default().Dropped() != dropped {
		t.Error("untraced Run recorded spans on trace.Default()")
	}

	rec := trace.New(trace.Config{Capacity: trace.Unbounded})
	root := rec.Start("test", nil)
	ctx := trace.ContextWith(context.Background(), root)
	if _, err := RunCtx(ctx, testRanges(), sumSolver, Options{Samples: 200, Seed: 1, Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Name != "uncertainty.run" || spans[0].Parent != root.ID() {
		t.Fatalf("%d spans, first %+v; want one uncertainty.run under the root", len(spans), spans[0])
	}
	if a, _ := spans[0].Attr("solved"); a.Int != 200 {
		t.Errorf("solved attribute = %v, want 200", a)
	}
}

// TestTracingAllocatesNothingPerSample: the allocations a traced context
// adds to an analysis do not grow with its sample count.
func TestTracingAllocatesNothingPerSample(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rec := trace.New(trace.Config{Capacity: 1})
	root := rec.Start("test", nil)
	traced := trace.ContextWith(context.Background(), root)
	extra := func(samples int) float64 {
		run := func(ctx context.Context) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := RunCtx(ctx, testRanges(), sumSolver, Options{Samples: samples, Seed: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		return run(traced) - run(context.Background())
	}
	small, large := extra(10), extra(1000)
	if small != large || large > 2 {
		t.Errorf("tracing adds %v allocations at 10 samples and %v at 1000, want the same ≤ 2", small, large)
	}
}
