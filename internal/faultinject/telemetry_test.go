package faultinject

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/jsas"
	"repro/internal/progress"
	"repro/internal/testbed"
)

// TestCampaignTelemetryDoesNotPerturbReport: attaching a progress tracker
// and a windowed time series must not change a single bit of the campaign
// result — telemetry observes the run, it never participates in it.
func TestCampaignTelemetryDoesNotPerturbReport(t *testing.T) {
	t.Parallel()
	base := Options{
		Config:     jsas.Config1,
		Params:     jsas.DefaultParams(),
		Seed:       42,
		Injections: 120,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	tracked := base
	tracked.Progress = progress.New(int64(base.Injections), progress.WithStat("recovered"))
	tracked.TimeSeries = testbed.NewTimeSeries(time.Hour, 0)
	got, err := Run(tracked)
	if err != nil {
		t.Fatalf("tracked run: %v", err)
	}

	if !reflect.DeepEqual(plain, got) {
		t.Fatal("telemetry changed the campaign report")
	}
	if n := tracked.Progress.Completed(); n != int64(base.Injections) {
		t.Fatalf("tracker counted %d injections, want %d", n, base.Injections)
	}
	snap := tracked.Progress.Snapshot()
	if snap.StatN != int64(base.Injections) {
		t.Fatalf("tracker observed %d verdicts, want %d", snap.StatN, base.Injections)
	}
	if want := got.SuccessRate(); snap.StatMean != want {
		t.Fatalf("running success rate %v != report %v", snap.StatMean, want)
	}
	if len(tracked.TimeSeries.Windows()) == 0 {
		t.Fatal("time series recorded no windows")
	}
}

// TestCampaignTimeSeriesMatchesStats: the windowed series' aggregate
// up/down time must equal the cluster's own availability accounting.
func TestCampaignTimeSeriesMatchesStats(t *testing.T) {
	t.Parallel()
	ts := testbed.NewTimeSeries(time.Hour, 0)
	rep, err := Run(Options{
		Config:     jsas.Config1,
		Params:     jsas.DefaultParams(),
		Seed:       7,
		Injections: 150,
		TimeSeries: ts,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var up, down time.Duration
	var outages int64
	for _, w := range ts.Windows() {
		up += w.Up
		down += w.Down
		outages += w.Outages
	}
	ev := ts.Evicted()
	up += ev.Up
	down += ev.Down
	outages += ev.Outages
	if up != rep.Stats.UpTime || down != rep.Stats.DownTime {
		t.Fatalf("series up/down %s/%s != stats %s/%s",
			up, down, rep.Stats.UpTime, rep.Stats.DownTime)
	}
	if int(outages) != len(rep.Stats.Outages) {
		t.Fatalf("series outages %d != stats %d", outages, len(rep.Stats.Outages))
	}
}

// TestReplicatedTimeSeriesDeterministicAcrossParallelism: the merged
// windowed series must be byte-identical for every Parallelism setting —
// replicas merge in replica order, never completion order.
func TestReplicatedTimeSeriesDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	render := func(parallelism int) []byte {
		ts := testbed.NewTimeSeries(time.Hour, 0)
		opts := ReplicatedOptions{
			Options: Options{
				Config:     jsas.Config1,
				Params:     jsas.DefaultParams(),
				Seed:       11,
				Injections: 160,
				TimeSeries: ts,
			},
			Replicas:    4,
			Parallelism: parallelism,
		}
		if _, err := RunReplicated(opts); err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		var buf bytes.Buffer
		if err := ts.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	for _, p := range []int{2, 4} {
		if got := render(p); !bytes.Equal(serial, got) {
			t.Fatalf("parallelism %d produced a different time series", p)
		}
	}
}

// checkProgressMatchesReport: a tracker a campaign reported to ends at
// the report, however the campaign stopped: one completion and one
// verdict per pooled injection, and the running mean is exactly the
// report's success rate. Progress advances in batches, so this holds
// only if every exit path flushes the last partial batch.
func checkProgressMatchesReport(t *testing.T, tr *progress.Tracker, rep *Report) {
	t.Helper()
	n := int64(len(rep.Injections))
	if got := tr.Completed(); got != n {
		t.Errorf("tracker completed %d, want %d (the report's injections)", got, n)
	}
	snap := tr.Snapshot()
	if snap.StatN != n {
		t.Errorf("tracker observed %d verdicts, want %d", snap.StatN, n)
	}
	if want := rep.SuccessRate(); snap.StatMean != want {
		t.Errorf("running success rate %v != report %v", snap.StatMean, want)
	}
}

// TestCampaignProgressFlushedOnEveryExit: a finished campaign, a
// campaign canceled mid-run and one whose cluster fails to settle all
// leave the tracker at their report, each stopping off a batch boundary.
func TestCampaignProgressFlushedOnEveryExit(t *testing.T) {
	t.Parallel()
	params := jsas.DefaultParams()
	params.FIR = 0.2 // mixed verdicts, so the running mean is not trivially 0 or 1
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		timeout time.Duration
		wantErr bool
	}{
		{name: "finished", ctx: context.Background()},
		{name: "canceled", ctx: &afterNCtx{Context: context.Background(), after: 100}, wantErr: true},
		{name: "settle failure", ctx: context.Background(), timeout: time.Second, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := progress.New(150, progress.WithStat("recovered"))
			rep, err := RunCtx(tc.ctx, Options{
				Config:          jsas.Config1,
				Params:          params,
				Seed:            4,
				Injections:      150,
				RecoveryTimeout: tc.timeout,
				Progress:        tr,
			})
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if rep == nil || len(rep.Injections)%progressBatch == 0 {
				t.Fatalf("want a report ending off a %d-injection batch boundary", progressBatch)
			}
			checkProgressMatchesReport(t, tr, rep)
		})
	}
}

// TestReplicatedSharedProgressTracker: all replicas feed one tracker, and
// it ends at the pooled report at any parallelism.
func TestReplicatedSharedProgressTracker(t *testing.T) {
	t.Parallel()
	for _, parallelism := range []int{1, 4} {
		tr := progress.New(1000, progress.WithStat("recovered"), progress.WithUnit("inj"))
		rep, err := RunReplicated(ReplicatedOptions{
			Options: Options{
				Config:     jsas.Config1,
				Params:     jsas.DefaultParams(),
				Seed:       3,
				Injections: 1000,
				Progress:   tr,
			},
			Replicas:    4,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatalf("parallelism %d: RunReplicated: %v", parallelism, err)
		}
		if len(rep.Injections) != 1000 {
			t.Fatalf("parallelism %d: %d injections, want 1000", parallelism, len(rep.Injections))
		}
		checkProgressMatchesReport(t, tr, rep)
	}
}
