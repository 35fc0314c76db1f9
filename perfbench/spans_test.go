package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func span(id, parent trace.SpanID, name string, start, end int64) trace.Span {
	return trace.Span{Trace: 1, ID: id, Parent: parent, Name: name, Start: start, End: end}
}

// The hand-built tree, in nanoseconds:
//
//	1 serve.op           [0, 100)
//	├─ 2 httpapi.submit  [10, 20)
//	└─ 3 jobs.follow     [20, 90)
//	   ├─ 4 jobs.queue   [15, 40)   starts before its parent: clipped to [20, 40)
//	   ├─ 5 jobs.run     [40, 70)
//	   └─ 6 jobs.run     [60, 80)   overlaps 5: [60, 70) counts once
var tree = []trace.Span{
	span(1, 0, "serve.op", 0, 100),
	span(2, 1, "httpapi.submit", 10, 20),
	span(3, 1, "jobs.follow", 20, 90),
	span(4, 3, "jobs.queue", 15, 40),
	span(5, 3, "jobs.run", 40, 70),
	span(6, 3, "jobs.run", 60, 80),
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(tree)
	want := map[trace.SpanID]time.Duration{
		1: 100 - 10 - 70, // minus submit and follow
		2: 10,
		3: 70 - 60, // follow [20,90) minus the union [20,80)
		4: 25,      // a leaf keeps its whole duration
		5: 30,
		6: 20,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, got[id], w)
		}
	}
}

func TestLayerSelf(t *testing.T) {
	got := layerSelf(tree)
	want := map[string]time.Duration{"serve": 20, "httpapi": 10, "jobs": 10 + 25 + 30 + 20}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("layer %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	kids := []trace.Span{
		span(2, 1, "a", 50, 60),
		span(3, 1, "a", 0, 10),
		span(4, 1, "a", 2, 5),     // inside the previous one
		span(5, 1, "a", 95, 130),  // runs past the parent
		span(6, 1, "a", 200, 300), // wholly outside
	}
	if got := covered(0, 100, kids); got != 10+10+5 {
		t.Errorf("covered = %v, want 25ns", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered(nil) = %v", got)
	}
}

func TestWriteLayerTable(t *testing.T) {
	var b strings.Builder
	writeLayerTable(&b, tree)
	out := b.String()
	if !strings.Contains(out, "1 traced operations") {
		t.Errorf("table does not count the one root:\n%s", out)
	}
	jobs, serve := strings.Index(out, "jobs"), strings.Index(out, "serve ")
	if jobs < 0 || serve < 0 || jobs > serve {
		t.Errorf("layers are not sorted by self time:\n%s", out)
	}
}

func TestRecorderSpansFeedSelfTime(t *testing.T) {
	var now time.Duration
	rec := trace.New(trace.Config{Capacity: trace.Unbounded, Clock: func() time.Duration { return now }})
	root := rec.Start("campaign.run", nil)
	now = 5
	child := rec.Start("faultinject.run_replicated", root)
	now = 45
	child.End()
	now = 50
	root.End()
	by := layerSelf(rec.Spans())
	if by["campaign"] != 10 || by["faultinject"] != 40 {
		t.Errorf("self by layer = %v, want campaign 10ns, faultinject 40ns", by)
	}
}
