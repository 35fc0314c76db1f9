package progress

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable time source for deterministic snapshots.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestNilTrackerIsNoOp(t *testing.T) {
	var tr *Tracker
	tr.Done()
	tr.Add(5)
	tr.Observe(1.0)
	tr.SetTotal(10)
	if got := tr.Completed(); got != 0 {
		t.Fatalf("nil Completed = %d, want 0", got)
	}
	if got := tr.Total(); got != 0 {
		t.Fatalf("nil Total = %d, want 0", got)
	}
	snap := tr.Snapshot()
	if snap != (Snapshot{}) {
		t.Fatalf("nil Snapshot = %+v, want zero", snap)
	}
}

func TestTrackerCountsAndFraction(t *testing.T) {
	clock := newFakeClock()
	tr := New(100, WithClock(clock.Now), WithUnit("inj"))
	for i := 0; i < 25; i++ {
		tr.Done()
	}
	tr.Add(25)
	clock.Advance(time.Second)
	snap := tr.Snapshot()
	if snap.Completed != 50 || snap.Total != 100 {
		t.Fatalf("got %d/%d, want 50/100", snap.Completed, snap.Total)
	}
	if snap.Fraction() != 0.5 {
		t.Fatalf("Fraction = %v, want 0.5", snap.Fraction())
	}
	if snap.Unit != "inj" {
		t.Fatalf("Unit = %q, want inj", snap.Unit)
	}
}

func TestTrackerRateAndETA(t *testing.T) {
	clock := newFakeClock()
	tr := New(100, WithClock(clock.Now))
	tr.Add(10)
	clock.Advance(time.Second)
	snap := tr.Snapshot()
	if math.Abs(snap.Rate-10) > 1e-9 {
		t.Fatalf("Rate = %v, want 10/s", snap.Rate)
	}
	if !snap.ETAKnown {
		t.Fatal("ETA should be known with total and rate set")
	}
	if got, want := snap.ETA, 9*time.Second; got != want {
		t.Fatalf("ETA = %v, want %v", got, want)
	}

	// Second interval at a different pace: EWMA blends 10/s and 30/s.
	tr.Add(30)
	clock.Advance(time.Second)
	snap = tr.Snapshot()
	want := ewmaAlpha*30 + (1-ewmaAlpha)*10
	if math.Abs(snap.Rate-want) > 1e-9 {
		t.Fatalf("EWMA rate = %v, want %v", snap.Rate, want)
	}

	// Completion pins ETA to zero.
	tr.Add(60)
	clock.Advance(time.Second)
	snap = tr.Snapshot()
	if !snap.ETAKnown || snap.ETA != 0 {
		t.Fatalf("completed run ETA = %v (known=%v), want 0 known", snap.ETA, snap.ETAKnown)
	}
}

func TestSnapshotDecaysRateOnStall(t *testing.T) {
	clock := newFakeClock()
	tr := New(1000, WithClock(clock.Now))
	tr.Add(500)
	clock.Advance(time.Second)
	healthy := tr.Snapshot()
	if math.Abs(healthy.Rate-500) > 1e-9 {
		t.Fatalf("healthy rate = %v, want 500/s", healthy.Rate)
	}
	if healthy.ETA != 1*time.Second {
		t.Fatalf("healthy ETA = %v, want 1s", healthy.ETA)
	}

	// Stall. Pre-fix, every snapshot from here on reported 500/s and a
	// frozen 1s ETA forever; the decay must cap the rate at what the
	// widening idle gap supports (stallDecayEvents/gap) so the ETA grows.
	clock.Advance(2 * time.Second)
	s1 := tr.Snapshot()
	if want := stallDecayEvents / 2.0; math.Abs(s1.Rate-want) > 1e-9 {
		t.Fatalf("rate after 2s stall = %v, want %v", s1.Rate, want)
	}
	if !s1.ETAKnown || s1.ETA <= healthy.ETA {
		t.Fatalf("ETA after 2s stall = %v (known=%v), want growth past %v",
			s1.ETA, s1.ETAKnown, healthy.ETA)
	}
	clock.Advance(8 * time.Second)
	s2 := tr.Snapshot()
	if want := stallDecayEvents / 10.0; math.Abs(s2.Rate-want) > 1e-9 {
		t.Fatalf("rate after 10s stall = %v, want %v", s2.Rate, want)
	}
	if s2.ETA <= s1.ETA {
		t.Fatalf("ETA stopped growing during stall: %v then %v", s1.ETA, s2.ETA)
	}

	// A short idle gap must NOT decay: the cap only bites once the gap
	// exceeds stallDecayEvents expected inter-completion times, so rapid
	// status polls leave a healthy rate alone.
	tr2 := New(1000, WithClock(clock.Now))
	tr2.Add(500)
	clock.Advance(time.Second)
	before := tr2.Snapshot().Rate
	clock.Advance(time.Millisecond)
	if after := tr2.Snapshot().Rate; after != before {
		t.Fatalf("1ms idle poll moved the rate: %v -> %v", before, after)
	}

	// Recovery: completions resume and the EWMA climbs back up from the
	// decayed value instead of staying stuck near zero.
	tr.Add(100)
	clock.Advance(time.Second)
	s3 := tr.Snapshot()
	if s3.Rate <= s2.Rate {
		t.Fatalf("rate did not recover after stall: %v then %v", s2.Rate, s3.Rate)
	}
}

func TestTrackerUnknownTotalHasNoETA(t *testing.T) {
	clock := newFakeClock()
	tr := New(0, WithClock(clock.Now))
	tr.Add(10)
	clock.Advance(time.Second)
	snap := tr.Snapshot()
	if snap.ETAKnown {
		t.Fatal("ETA should be unknown without a total")
	}
	if snap.Rate == 0 {
		t.Fatal("rate should still be estimated without a total")
	}
}

func TestTrackerRunningStat(t *testing.T) {
	clock := newFakeClock()
	tr := New(4, WithClock(clock.Now), WithStat("recovered"))
	vals := []float64{1, 1, 0, 1}
	for _, v := range vals {
		tr.Done()
		tr.Observe(v)
	}
	clock.Advance(time.Second)
	snap := tr.Snapshot()
	if snap.StatName != "recovered" || snap.StatN != 4 {
		t.Fatalf("stat name/n = %q/%d, want recovered/4", snap.StatName, snap.StatN)
	}
	if math.Abs(snap.StatMean-0.75) > 1e-12 {
		t.Fatalf("StatMean = %v, want 0.75", snap.StatMean)
	}
	// Sample variance of {1,1,0,1} is 0.25; half-width = z95*sqrt(0.25/4).
	wantHW := z95 * math.Sqrt(0.25/4)
	if math.Abs(snap.StatHalfWidth-wantHW) > 1e-12 {
		t.Fatalf("StatHalfWidth = %v, want %v", snap.StatHalfWidth, wantHW)
	}
}

// TestObserveSumMatchesObserve: feeding 0/1 values as batched sums gives
// the same snapshot, bit for bit, as one Observe per value, the contract
// that lets campaigns report verdicts 64 at a time.
func TestObserveSumMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 63, 64, 65, 1000, 100003} {
		clock := newFakeClock()
		one := New(int64(n), WithClock(clock.Now), WithStat("recovered"))
		batched := New(int64(n), WithClock(clock.Now), WithStat("recovered"))
		var batchN, batchOnes int64
		for i := 0; i < n; i++ {
			v := 0.0
			if rng.Float64() < 0.9 {
				v = 1
			}
			one.Observe(v)
			batchN++
			batchOnes += int64(v)
			if batchN == 64 || i == n-1 {
				batched.ObserveSum(batchN, float64(batchOnes), float64(batchOnes))
				batchN, batchOnes = 0, 0
			}
		}
		clock.Advance(time.Second)
		a, b := one.Snapshot(), batched.Snapshot()
		if a != b || math.Float64bits(a.StatMean) != math.Float64bits(b.StatMean) ||
			math.Float64bits(a.StatHalfWidth) != math.Float64bits(b.StatHalfWidth) {
			t.Errorf("n=%d: ObserveSum snapshot %+v, Observe snapshot %+v", n, b, a)
		}
	}
	var nilTracker *Tracker
	nilTracker.ObserveSum(3, 2, 2) // no-op, no panic
}

func TestTrackerStatWithoutNameOmitted(t *testing.T) {
	tr := New(1)
	tr.Observe(42)
	snap := tr.Snapshot()
	if snap.StatName != "" || snap.StatN != 0 {
		t.Fatalf("unnamed stat leaked into snapshot: %+v", snap)
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := New(0, WithStat("x"))
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Done()
				tr.Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := tr.Completed(); got != workers*per {
		t.Fatalf("Completed = %d, want %d", got, workers*per)
	}
	snap := tr.Snapshot()
	if snap.StatN != workers*per {
		t.Fatalf("StatN = %d, want %d", snap.StatN, workers*per)
	}
	if math.Abs(snap.StatMean-1) > 1e-12 {
		t.Fatalf("StatMean = %v, want 1", snap.StatMean)
	}
}

func TestSnapshotString(t *testing.T) {
	clock := newFakeClock()
	tr := New(200, WithClock(clock.Now), WithUnit("inj"), WithStat("recovered"))
	tr.Add(100)
	tr.Observe(1)
	tr.Observe(1)
	clock.Advance(time.Second)
	s := tr.Snapshot().String()
	for _, want := range []string{"100/200", "(50.0%)", "100.0 inj/s", "ETA 1s", "recovered=1.000000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("status line %q missing %q", s, want)
		}
	}

	// Unknown total renders the bare count.
	tr2 := New(0, WithClock(clock.Now))
	tr2.Add(7)
	s2 := tr2.Snapshot().String()
	if !strings.HasPrefix(s2, "7") || strings.Contains(s2, "ETA") {
		t.Fatalf("unknown-total line = %q", s2)
	}
}

func TestReporterEmitsFinalLine(t *testing.T) {
	var buf bytes.Buffer
	tr := New(10, WithUnit("inj"))
	rep := NewReporter(tr, &buf, "campaign", time.Hour) // interval never fires
	rep.Start()
	tr.Add(10)
	rep.Stop()
	out := buf.String()
	if !strings.Contains(out, "campaign: 10/10 (100.0%)") {
		t.Fatalf("final status line missing from %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("status output not newline-terminated: %q", out)
	}
}

func TestReporterNilTrackerNoOp(t *testing.T) {
	var buf bytes.Buffer
	rep := NewReporter(nil, &buf, "x", time.Millisecond)
	rep.Start()
	rep.Stop()
	if buf.Len() != 0 {
		t.Fatalf("nil-tracker reporter wrote %q", buf.String())
	}
}

func TestReporterTicks(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	tr := New(100)
	tr.Add(5)
	rep := NewReporter(tr, w, "tick", 100*time.Millisecond)
	rep.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := strings.Count(buf.String(), "\n")
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reporter never ticked twice")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep.Stop()
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestRegistryLifecycle(t *testing.T) {
	clock := newFakeClock()
	reg := NewRegistry(2)
	reg.SetClock(clock.Now)

	run := reg.Begin("uncertainty", "samples=100", 100, WithUnit("samples"))
	run.Tracker().Add(40)
	clock.Advance(time.Second)

	sts := reg.Statuses()
	if len(sts) != 1 {
		t.Fatalf("got %d statuses, want 1", len(sts))
	}
	st := sts[0]
	if st.State != "running" || st.Completed != 40 || st.Total != 100 {
		t.Fatalf("status = %+v", st)
	}
	if st.Kind != "uncertainty" || st.Detail != "samples=100" {
		t.Fatalf("kind/detail = %q/%q", st.Kind, st.Detail)
	}
	if st.ETASec <= 0 {
		t.Fatalf("ETASec = %v, want > 0", st.ETASec)
	}

	run.Finish(nil)
	run.Finish(errors.New("second call must not win"))
	st = reg.Statuses()[0]
	if st.State != "done" || st.Error != "" {
		t.Fatalf("finished status = %+v", st)
	}
	if st.EndedAt == "" {
		t.Fatal("finished run missing EndedAt")
	}

	errRun := reg.Begin("sweep", "", 10)
	errRun.Finish(errors.New("boom"))
	for _, s := range reg.Statuses() {
		if s.ID == errRun.ID {
			if s.State != "error" || s.Error != "boom" {
				t.Fatalf("error status = %+v", s)
			}
		}
	}
}

// TestFinishedRunStatusIsStable: a finished run's status is frozen at
// Finish, so reads at different times return the same rate and ETA
// instead of a rate that keeps decaying after the work ended.
func TestFinishedRunStatusIsStable(t *testing.T) {
	clock := newFakeClock()
	reg := NewRegistry(0)
	reg.SetClock(clock.Now)
	run := reg.Begin("uncertainty", "", 3)
	for i := 0; i < 3; i++ {
		clock.Advance(20 * time.Millisecond)
		run.Tracker().Done()
	}
	run.Finish(nil)
	first := run.Status()
	clock.Advance(500 * time.Millisecond)
	second := run.Status()
	if first != second {
		t.Fatalf("finished status changed between reads:\n%+v\n%+v", first, second)
	}
	if first.Rate <= 0 || first.Completed != 3 {
		t.Fatalf("finished status = %+v, want 3 completed at a positive rate", first)
	}
}

func TestRegistryEvictsOldestFinished(t *testing.T) {
	reg := NewRegistry(2)
	var finished []*Run
	for i := 0; i < 5; i++ {
		r := reg.Begin("k", fmt.Sprintf("run %d", i), 1)
		r.Finish(nil)
		finished = append(finished, r)
	}
	live := reg.Begin("k", "live", 1)

	sts := reg.Statuses()
	if len(sts) != 3 { // 1 running + 2 retained finished
		t.Fatalf("got %d statuses, want 3: %+v", len(sts), sts)
	}
	ids := map[int64]bool{}
	for _, s := range sts {
		ids[s.ID] = true
	}
	if !ids[live.ID] || !ids[finished[4].ID] || !ids[finished[3].ID] {
		t.Fatalf("retained wrong runs: %+v", sts)
	}
	// Newest first.
	if sts[0].ID != live.ID {
		t.Fatalf("statuses not newest-first: %+v", sts)
	}
}

func TestTrackerDoneDoesNotAllocate(t *testing.T) {
	tr := New(1000, WithStat("x"))
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Done()
		tr.Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("Done+Observe allocates %v per op, want 0", allocs)
	}
}
