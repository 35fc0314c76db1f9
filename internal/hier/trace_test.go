package hier

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// TestEvaluateSpansFollowContext: an untraced evaluation records nothing
// on the process-wide ring; a traced one is one tree — hier.evaluate
// under the caller's span, a hier.component per component nested as the
// hierarchy is, and each submodel's ctmc.solve under its component.
func TestEvaluateSpansFollowContext(t *testing.T) {
	t.Parallel()
	child := NewComponent("child", twoStateBuilder("la", "mu"))
	parent := NewComponent("parent", twoStateBuilder("La_child", "Mu_child"))
	parent.Use(child, "La_child", "Mu_child")
	params := Params{"la": 0.004, "mu": 2.5}

	before, dropped := len(trace.Default().Spans()), trace.Default().Dropped()
	if _, err := Evaluate(parent, params, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(trace.Default().Spans()) != before || trace.Default().Dropped() != dropped {
		t.Error("untraced Evaluate recorded spans on trace.Default()")
	}

	rec := trace.New(trace.Config{Capacity: trace.Unbounded})
	root := rec.Start("test", nil)
	if _, err := EvaluateCtx(trace.ContextWith(context.Background(), root), parent, params, Options{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	byID := map[trace.SpanID]trace.Span{}
	for _, sp := range rec.Spans() {
		byID[sp.ID] = sp
		if sp.Trace != root.ID() {
			t.Errorf("%s is outside the root's trace", sp.Name)
		}
	}
	parentOf := func(sp trace.Span) string {
		return byID[sp.Parent].Name + "/" + byID[sp.Parent].AttrString("component")
	}
	var got []string
	for _, sp := range rec.Spans() {
		if sp.ID != root.ID() {
			got = append(got, sp.Name+"/"+sp.AttrString("component")+" < "+parentOf(sp))
		}
	}
	want := []string{
		"ctmc.solve/ < hier.component/child",
		"hier.component/child < hier.component/parent",
		"ctmc.solve/ < hier.component/parent",
		"hier.component/parent < hier.evaluate/",
		"hier.evaluate/ < test/",
	}
	if len(got) != len(want) {
		t.Fatalf("spans = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %q, want %q", i, got[i], want[i])
		}
	}
}
