package trace

import (
	"context"
	"testing"
	"time"
)

// TestChildFollowsContext: Child parents its span on the span the
// context carries, on that span's recorder, and a context without a span
// records nothing.
func TestChildFollowsContext(t *testing.T) {
	t.Parallel()
	now := time.Duration(0)
	rec := New(Config{Capacity: Unbounded, Clock: func() time.Duration { now++; return now }})
	root := rec.Start("request", nil, String("kind", "test"))
	ctx := ContextWith(context.Background(), root)
	if FromContext(ctx) != root {
		t.Fatal("FromContext does not return the span ContextWith stored")
	}
	mid := Child(ctx, "layer", 2)
	leaf := Child(ContextWith(ctx, mid), "leaf", 0)
	if got := cap(mid.span.Attrs); got != 2 {
		t.Errorf("Child reserved %d attributes, want 2", got)
	}
	mid.Attr(Int("a", 1), Bool("b", true))
	if got := cap(mid.span.Attrs); got != 2 {
		t.Errorf("adding the reserved attributes grew the slice to cap %d", got)
	}
	leaf.End()
	mid.End()
	root.End()

	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		if sp.Trace != root.ID() {
			t.Errorf("%s: trace %d, want %d", sp.Name, sp.Trace, root.ID())
		}
	}
	if p := byName["layer"].Parent; p != root.ID() {
		t.Errorf("layer parent = %d, want the root %d", p, root.ID())
	}
	if p := byName["leaf"].Parent; p != mid.ID() {
		t.Errorf("leaf parent = %d, want layer %d", p, mid.ID())
	}
	if len(byName["leaf"].Attrs) != 0 {
		t.Errorf("leaf carries attributes %v", byName["leaf"].Attrs)
	}

	for name, c := range map[string]context.Context{
		"background": context.Background(),
		"nil":        nil,
		"nil span":   ContextWith(context.Background(), nil),
	} {
		if FromContext(c) != nil || Child(c, "x", 3) != nil {
			t.Errorf("%s context: a span was started", name)
		}
	}
	if len(rec.Spans()) != 3 {
		t.Error("untraced calls recorded spans")
	}
}

// TestUntracedChildAllocatesNothing: the untraced path of a layer —
// Child, ContextWith with a nil span, and ending the nil span — makes no
// allocation.
func TestUntracedChildAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	n := testing.AllocsPerRun(100, func() {
		sp := Child(ctx, "ctmc.solve", 4)
		_ = ContextWith(ctx, sp)
		sp.End()
	})
	if n != 0 {
		t.Errorf("untraced span calls allocate %v times, want 0", n)
	}
}
