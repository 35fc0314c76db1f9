// Package trace is a dependency-free structured tracing layer — the
// engine's flight recorder. Spans carry IDs, parent links, start/end
// timestamps, and typed attributes; a Recorder collects completed spans in
// a bounded in-memory ring buffer and optionally streams them to a JSONL
// sink as they close. Timestamps are durations from a run origin, so the
// same machinery records both clock domains the engine uses: virtual
// sim-time for discrete-event testbed runs and wall-time for solver work.
//
// The span tree is the measurement artifact the paper's methodology is
// built on: a fault-injection campaign is not a counter but a timeline
// (injection → component failure → repair stages → reinstatement, with any
// system outage as its own interval), and the outage analyzer (outage.go)
// reconstructs the per-failure-mode downtime decomposition from it.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// SpanID identifies a span within one Recorder. IDs are assigned
// monotonically from 1; 0 means "no span" (no parent / no trace).
type SpanID uint64

// Attr value discriminators.
const (
	TypeString = "str"
	TypeInt    = "int"
	TypeFloat  = "float"
	TypeBool   = "bool"
)

// Attr is one typed span attribute. Exactly one value field is meaningful,
// selected by Type; keeping the variants explicit (rather than an `any`)
// makes the JSONL encoding lossless under decode→re-encode.
type Attr struct {
	Key   string  `json:"key"`
	Type  string  `json:"type"`
	Str   string  `json:"str,omitempty"`
	Int   int64   `json:"int,omitempty"`
	Float float64 `json:"float,omitempty"`
	Bool  bool    `json:"bool,omitempty"`
}

// String makes a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Type: TypeString, Str: v} }

// Int makes an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Type: TypeInt, Int: v} }

// Float makes a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Type: TypeFloat, Float: v} }

// Bool makes a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Type: TypeBool, Bool: v} }

// Value returns the attribute's value as an any (for generic renderers).
func (a Attr) Value() any {
	switch a.Type {
	case TypeInt:
		return a.Int
	case TypeFloat:
		return a.Float
	case TypeBool:
		return a.Bool
	default:
		return a.Str
	}
}

// String renders key=value.
func (a Attr) String() string { return fmt.Sprintf("%s=%v", a.Key, a.Value()) }

// Span is one completed (or force-closed) operation interval.
type Span struct {
	// Trace is the ID of the root span this span belongs to.
	Trace SpanID `json:"trace"`
	// ID is the span's own identifier.
	ID SpanID `json:"id"`
	// Parent is the enclosing span's ID (0 for a root).
	Parent SpanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds from the recorder's origin (virtual
	// time for DES recorders, process-relative wall time otherwise).
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Attrs []Attr `json:"attrs,omitempty"`
	// Open marks a span that was still in flight when the recorder was
	// closed; End then holds the close time, not a real completion.
	Open bool `json:"open,omitempty"`
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Attr returns the named attribute and whether it exists.
func (s Span) Attr(key string) (Attr, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// AttrString returns the named string attribute ("" if absent).
func (s Span) AttrString(key string) string {
	a, _ := s.Attr(key)
	return a.Str
}

// Unbounded disables the ring-buffer cap (Config.Capacity): every span is
// retained. Use for bounded workloads (a campaign that will be analyzed);
// long-lived processes should keep the default bounded ring.
const Unbounded = -1

// defaultCapacity is the ring size when Config.Capacity is 0.
const defaultCapacity = 8192

// Config configures a Recorder.
type Config struct {
	// Capacity bounds the in-memory ring of completed spans: once full,
	// the oldest span is overwritten (and counted in Dropped). 0 means
	// defaultCapacity; Unbounded retains everything.
	Capacity int
	// Sink, if set, receives every completed span as one JSON line, in
	// completion order, regardless of ring capacity.
	Sink io.Writer
	// Clock supplies "now" for Start/End (as opposed to StartAt/EndAt,
	// which take explicit times). Defaults to wall time relative to the
	// recorder's creation.
	Clock func() time.Duration
}

// Recorder collects spans. It is safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	clock    func() time.Duration
	nextID   SpanID
	ring     []Span
	next     int // next ring slot to write (bounded mode)
	full     bool
	capacity int
	dropped  uint64
	sink     io.Writer
	sinkErr  error
}

// New constructs a recorder.
func New(cfg Config) *Recorder {
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = defaultCapacity
	}
	clock := cfg.Clock
	if clock == nil {
		epoch := time.Now()
		clock = func() time.Duration { return time.Since(epoch) }
	}
	return &Recorder{clock: clock, capacity: capacity, sink: cfg.Sink}
}

// defaultRecorder is the process-wide wall-clock recorder. The HTTP API
// opens a root span on it for each compute request and job run, the
// solver layers beneath record into it through the context (see Child),
// and GET /v1/traces/{id} serves it.
var defaultRecorder = New(Config{})

// Default returns the process-wide recorder.
func Default() *Recorder { return defaultRecorder }

// Active is an in-flight span. The zero/nil Active is a no-op, so call
// sites can start spans unconditionally against a possibly-nil Recorder.
type Active struct {
	r     *Recorder
	span  Span
	ended bool
}

// Start opens a span at the recorder's current clock time. parent may be
// nil (the span roots a new trace). A nil recorder returns nil.
func (r *Recorder) Start(name string, parent *Active, attrs ...Attr) *Active {
	if r == nil {
		return nil
	}
	return r.StartAt(name, r.clock(), parent, attrs...)
}

// StartAt opens a span at an explicit time from the run origin.
func (r *Recorder) StartAt(name string, at time.Duration, parent *Active, attrs ...Attr) *Active {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	sp := Span{ID: id, Trace: id, Name: name, Start: int64(at), Attrs: attrs}
	if parent != nil && parent.r == r {
		sp.Parent = parent.span.ID
		sp.Trace = parent.span.Trace
	}
	return &Active{r: r, span: sp}
}

// ID returns the span's identifier (0 for a nil Active).
func (a *Active) ID() SpanID {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// TraceID returns the root span ID of the span's trace (0 for nil).
func (a *Active) TraceID() SpanID {
	if a == nil {
		return 0
	}
	return a.span.Trace
}

// Attr appends attributes to the span. No-op after End.
func (a *Active) Attr(attrs ...Attr) {
	if a == nil || a.ended {
		return
	}
	a.span.Attrs = append(a.span.Attrs, attrs...)
}

// End closes the span at the recorder's current clock time and records it.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.EndAt(a.r.clock())
}

// EndAt closes the span at an explicit time. Ending twice is a no-op.
func (a *Active) EndAt(at time.Duration) {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.span.End = int64(at)
	if a.span.End < a.span.Start {
		a.span.End = a.span.Start
	}
	a.r.record(a.span)
}

// EndOpenAt closes the span at an explicit time, marking it force-closed
// (Span.Open): the operation was still in flight when the trace stopped.
func (a *Active) EndOpenAt(at time.Duration) {
	if a == nil || a.ended {
		return
	}
	a.span.Open = true
	a.EndAt(at)
}

// record stores a completed span in the ring and streams it to the sink.
func (r *Recorder) record(sp Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordLocked(sp)
}

func (r *Recorder) recordLocked(sp Span) {
	if r.capacity == Unbounded {
		r.ring = append(r.ring, sp)
	} else if len(r.ring) < r.capacity {
		r.ring = append(r.ring, sp)
		r.next = len(r.ring) % r.capacity
	} else {
		r.ring[r.next] = sp
		r.next = (r.next + 1) % r.capacity
		r.full = true
		r.dropped++
	}
	if r.sink != nil && r.sinkErr == nil {
		r.sinkErr = encodeJSONL(r.sink, sp)
	}
}

// Import appends completed spans from another recorder, remapping span,
// parent, and trace IDs past this recorder's current ID watermark so the
// imported tree cannot collide with native spans. Spans are recorded in
// the order given (and streamed to the sink in that order), so importing
// per-replica recorders by ascending replica index yields a deterministic
// merged stream regardless of how the replicas were scheduled. Parent
// links internal to the imported set are preserved; a parent ID not
// present in the set is remapped blindly, so import whole recorder dumps,
// not filtered subsets.
func (r *Recorder) Import(spans []Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.nextID
	var maxID SpanID
	for _, sp := range spans {
		if sp.ID > maxID {
			maxID = sp.ID
		}
		sp.ID += base
		if sp.Trace != 0 {
			sp.Trace += base
		}
		if sp.Parent != 0 {
			sp.Parent += base
		}
		r.recordLocked(sp)
	}
	r.nextID = base + maxID
}

// Spans returns the retained spans in completion order (oldest first).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.ring))
	if r.full {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
		return out
	}
	return append(out, r.ring...)
}

// TraceSpans returns the retained spans belonging to the given trace.
func (r *Recorder) TraceSpans(id SpanID) []Span {
	var out []Span
	for _, sp := range r.Spans() {
		if sp.Trace == id {
			out = append(out, sp)
		}
	}
	return out
}

// TraceIDs returns the distinct trace IDs present in the ring, ascending.
func (r *Recorder) TraceIDs() []SpanID {
	seen := map[SpanID]bool{}
	var out []SpanID
	for _, sp := range r.Spans() {
		if !seen[sp.Trace] {
			seen[sp.Trace] = true
			out = append(out, sp.Trace)
		}
	}
	for i := 1; i < len(out); i++ { // insertion sort: IDs are near-sorted
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Dropped returns the number of spans overwritten in the bounded ring.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// SinkErr returns the first error the JSONL sink reported, if any.
func (r *Recorder) SinkErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}
