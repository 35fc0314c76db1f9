package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("solves_total", "solves")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("residual", "last residual")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %g, want 1", got)
	}
	h := r.Histogram("latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-12 {
		t.Fatalf("histogram sum = %g, want 56.05", h.Sum())
	}
	bounds, counts := h.Buckets()
	wantCounts := []int64{1, 2, 1, 1}
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
		t.Fatalf("bounds = %v, want 3 finite + +Inf", bounds)
	}
	for i, want := range wantCounts {
		if counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], want, counts)
		}
	}
}

func TestRegistryIdempotentAndLabeled(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "req", `route="/v1/solve"`)
	b := r.Counter("requests_total", "req", `route="/v1/solve"`)
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	other := r.Counter("requests_total", "req", `route="/healthz"`)
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Inc()
	other.Add(2)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		`requests_total{route="/healthz"} 2`,
		`requests_total{route="/v1/solve"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text export missing %q:\n%s", want, text)
		}
	}
}

func TestWriteTextHistogramFormat(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("solve_seconds", "solve latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE solve_seconds histogram",
		`solve_seconds_bucket{le="0.01"} 1`,
		`solve_seconds_bucket{le="0.1"} 2`,
		`solve_seconds_bucket{le="+Inf"} 3`,
		"solve_seconds_sum 5.055",
		"solve_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text export missing %q:\n%s", want, text)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	r.Gauge("b", "").Set(2.5)
	r.Histogram("c_seconds", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snaps []SeriesSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snaps); err != nil {
		t.Fatalf("invalid JSON export: %v\n%s", err, buf.String())
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d series, want 3", len(snaps))
	}
	if snaps[0].Name != "a_total" || snaps[0].Value != 3 {
		t.Fatalf("first series = %+v, want a_total=3", snaps[0])
	}
	if snaps[2].Name != "c_seconds" || snaps[2].Count != 1 {
		t.Fatalf("third series = %+v, want c_seconds count 1", snaps[2])
	}
}

// TestConcurrentUpdates hammers one counter, gauge, and histogram from
// many goroutines; run under -race this is the package's data-race gate,
// and the final counts must be exact.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Lazy lookups race on the registry map on purpose.
				r.Counter("events_total", "").Inc()
				r.Gauge("level", "").Add(1)
				r.Histogram("dur_seconds", "", DurationBuckets).Observe(float64(i%10) / 100)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WriteText(&buf); err != nil {
						t.Errorf("worker %d: WriteText: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if got := r.Counter("events_total", "").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := r.Gauge("level", "").Value(); got != total {
		t.Errorf("gauge = %g, want %d", got, total)
	}
	h := r.Histogram("dur_seconds", "", DurationBuckets)
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	_, counts := h.Buckets()
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != total {
		t.Errorf("bucket counts sum to %d, want %d", sum, total)
	}
}

// TestRenderDuringSeriesCreation reproduces the scrape-vs-first-use race:
// series are created lazily on hot paths (a fresh label set per solver
// method, per testbed component), so a GET /metrics render can overlap
// the first lookup of a new series. Renderers must copy each family's
// series set under the registry lock — under -race this test fails with
// "concurrent map iteration and map write" if they iterate the live map.
func TestRenderDuringSeriesCreation(t *testing.T) {
	r := NewRegistry()
	r.Counter("churn_total", "", `i="seed"`).Inc()
	// Each creator stops after a fixed number of series: every render is
	// O(series), so unbounded creators make the test's memory grow with
	// the renders it runs (gigabytes under -race on two CPUs).
	const creators, seriesPerCreator = 4, 50
	var finished atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < creators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer finished.Add(1)
			for i := 0; i < seriesPerCreator; i++ {
				// Fresh labels every iteration force new-series insertion
				// into existing families while renders are in flight.
				label := fmt.Sprintf("i=%q", strconv.Itoa(w*1_000_000+i))
				r.Counter("churn_total", "", label).Inc()
				r.Gauge("churn_level", "", label).Set(float64(i))
				r.Histogram("churn_seconds", "", []float64{1, 10}, label).Observe(0.5)
			}
		}(w)
	}
	// Keep rendering until every creator has finished, so creation and
	// iteration genuinely overlap rather than the renders finishing
	// before the goroutines get scheduled.
	for i := 0; i < 300 || finished.Load() < creators; i++ {
		if err := r.WriteText(io.Discard); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if err := r.WriteSummary(io.Discard); err != nil {
			t.Fatalf("WriteSummary: %v", err)
		}
		if snaps := r.Snapshot(); len(snaps) == 0 {
			t.Fatal("Snapshot returned no series despite the seed counter")
		}
	}
	wg.Wait()
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}
