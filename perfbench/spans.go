package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// selfTimes returns each span's self time: its duration minus the part
// of its own interval that its children cover. Overlapping children
// (parallel work, or a server-side span reconstructed beside a
// client-side one) count once, and a child's time outside its parent is
// ignored.
func selfTimes(spans []trace.Span) map[trace.SpanID]time.Duration {
	children := map[trace.SpanID][]trace.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[trace.SpanID]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End-s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered measures how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []trace.Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return time.Duration(total)
}

// layerOf names the layer a span belongs to: the prefix of its name
// before the first dot ("jsas.solve" → "jsas").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time by layer.
func layerSelf(spans []trace.Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// writeLayerTable prints self time by layer, per root operation and as
// a share of the total, largest first.
func writeLayerTable(w io.Writer, spans []trace.Span) {
	by := layerSelf(spans)
	ops := 0
	for _, s := range spans {
		if s.Parent == 0 {
			ops++
		}
	}
	var total time.Duration
	names := make([]string, 0, len(by))
	for name, d := range by {
		names = append(names, name)
		total += d
	}
	sort.Slice(names, func(i, j int) bool {
		if by[names[i]] != by[names[j]] {
			return by[names[i]] > by[names[j]]
		}
		return names[i] < names[j]
	})
	if ops < 1 {
		ops = 1
	}
	fmt.Fprintf(w, "self time by layer (%d traced operations, %d spans)\n", ops, len(spans))
	fmt.Fprintf(w, "  %-14s %12s %8s\n", "layer", "ms/op", "share")
	for _, name := range names {
		share := 0.0
		if total > 0 {
			share = 100 * float64(by[name]) / float64(total)
		}
		fmt.Fprintf(w, "  %-14s %12.4f %7.2f%%\n", name, ms(by[name])/float64(ops), share)
	}
}
