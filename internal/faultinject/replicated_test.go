package faultinject

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/jsas"
	"repro/internal/testbed"
	"repro/internal/trace"
)

func TestReplicaSeed(t *testing.T) {
	t.Parallel()
	if got := ReplicaSeed(2004, 0); got != 2004 {
		t.Errorf("replica 0 seed = %d, want the base seed", got)
	}
	seen := map[int64]int{2004: 0}
	for r := 1; r < 64; r++ {
		s := ReplicaSeed(2004, r)
		if prev, dup := seen[s]; dup {
			t.Fatalf("replicas %d and %d share seed %d", prev, r, s)
		}
		seen[s] = r
	}
	// Adjacent base seeds must not collide across replicas either.
	if ReplicaSeed(2004, 1) == ReplicaSeed(2005, 1) {
		t.Error("adjacent base seeds map to the same replica-1 seed")
	}
}

// TestReplicatedSingleMatchesSerial: -replicas 1 is the serial campaign,
// bit for bit — same report, same trace stream.
func TestReplicatedSingleMatchesSerial(t *testing.T) {
	t.Parallel()
	base := Options{Config: jsas.Config1, Params: perfectParams(), Seed: 17, Injections: 40}

	serialOpts := base
	serialRec := trace.New(trace.Config{Capacity: trace.Unbounded})
	serialOpts.Trace = serialRec
	serial, err := Run(serialOpts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	replOpts := base
	replRec := trace.New(trace.Config{Capacity: trace.Unbounded})
	replOpts.Trace = replRec
	repl, err := RunReplicated(ReplicatedOptions{Options: replOpts, Replicas: 1, Parallelism: 4})
	if err != nil {
		t.Fatalf("RunReplicated: %v", err)
	}

	if !reflect.DeepEqual(serial, repl) {
		t.Errorf("replicas=1 report differs from serial:\n%+v\nvs\n%+v", serial, repl)
	}
	if !reflect.DeepEqual(serialRec.Spans(), replRec.Spans()) {
		t.Error("replicas=1 trace stream differs from serial")
	}
}

// TestReplicatedDeterministicAcrossParallelism: the merged report and
// trace depend only on (Options, Replicas), never on worker count.
func TestReplicatedDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	run := func(parallelism int) (*Report, []trace.Span) {
		rec := trace.New(trace.Config{Capacity: trace.Unbounded})
		rep, err := RunReplicated(ReplicatedOptions{
			Options: Options{
				Config: jsas.Config1, Params: perfectParams(), Seed: 23,
				Injections: 40, Trace: rec,
			},
			Replicas:    4,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatalf("RunReplicated(parallelism=%d): %v", parallelism, err)
		}
		return rep, rec.Spans()
	}
	rep1, spans1 := run(1)
	for _, par := range []int{2, 4, 8} {
		repN, spansN := run(par)
		if !reflect.DeepEqual(rep1, repN) {
			t.Fatalf("report differs between parallelism 1 and %d", par)
		}
		if !reflect.DeepEqual(spans1, spansN) {
			t.Fatalf("trace stream differs between parallelism 1 and %d", par)
		}
	}
}

// TestReplicatedMergeMatchesReplicas: the merged report is the
// replicas' own reports pooled in replica order, at any parallelism:
// injections and recovery-time samples concatenate, and the cluster
// stats are testbed.MergeStats of the per-replica Stats.
func TestReplicatedMergeMatchesReplicas(t *testing.T) {
	t.Parallel()
	params := jsas.DefaultParams()
	params.FIR = 0.2 // outages, so the merged Stats carries records
	base := Options{Config: jsas.Config1, Params: params, Seed: 29, Injections: 402}
	const replicas = 4
	run := func(parallelism int) *Report {
		rep, err := RunReplicated(ReplicatedOptions{Options: base, Replicas: replicas, Parallelism: parallelism})
		if err != nil {
			t.Fatalf("RunReplicated(parallelism=%d): %v", parallelism, err)
		}
		return rep
	}
	rep1, rep4 := run(1), run(4)
	if !reflect.DeepEqual(rep1.Stats, rep4.Stats) {
		t.Fatal("merged Stats differ between parallelism 1 and 4")
	}
	var (
		stats      []testbed.Stats
		injections []Injection
		samples    = map[string][]time.Duration{}
	)
	for i := 0; i < replicas; i++ {
		opts := base
		opts.Seed = ReplicaSeed(base.Seed, i)
		opts.Injections = base.Injections / replicas
		if i < base.Injections%replicas {
			opts.Injections++
		}
		rep, err := Run(opts)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		stats = append(stats, rep.Stats)
		injections = append(injections, rep.Injections...)
		for k, v := range rep.RecoveryTimes {
			samples[k] = append(samples[k], v...)
		}
	}
	if len(rep1.Stats.Outages) == 0 || len(rep1.Stats.Recoveries) == 0 {
		t.Fatal("campaign produced no outage or recovery records to merge")
	}
	if !reflect.DeepEqual(rep1.Stats, testbed.MergeStats(stats...)) {
		t.Error("merged Stats != MergeStats of the replicas' Stats")
	}
	if !reflect.DeepEqual(rep1.Injections, injections) {
		t.Error("merged injections != the replicas' injections in replica order")
	}
	if !reflect.DeepEqual(rep1.RecoveryTimes, samples) {
		t.Error("merged recovery times != the replicas' samples in replica order")
	}
}

// TestReplicatedShardsAndPools: injections shard across replicas with the
// remainder on the lowest indices, and the merged report pools everything.
func TestReplicatedShardsAndPools(t *testing.T) {
	t.Parallel()
	rec := trace.New(trace.Config{Capacity: trace.Unbounded})
	rep, err := RunReplicated(ReplicatedOptions{
		Options: Options{
			Config: jsas.Config1, Params: perfectParams(), Seed: 31,
			Injections: 10, Trace: rec,
		},
		Replicas: 4,
	})
	if err != nil {
		t.Fatalf("RunReplicated: %v", err)
	}
	if rep.Replicas != 4 {
		t.Errorf("Replicas = %d, want 4", rep.Replicas)
	}
	if len(rep.Injections) != 10 {
		t.Fatalf("pooled injections = %d, want 10", len(rep.Injections))
	}
	if rep.Successes != 10 {
		t.Errorf("pooled successes = %d, want 10 (FIR=0)", rep.Successes)
	}
	byFault := 0
	for _, n := range rep.ByFault {
		byFault += n
	}
	if byFault != 10 {
		t.Errorf("ByFault total = %d, want 10", byFault)
	}
	if len(rep.CoverageBounds) != 2 {
		t.Fatalf("bounds = %d, want 2", len(rep.CoverageBounds))
	}
	if tot := rep.Stats.UpTime + rep.Stats.DownTime; tot <= 0 {
		t.Error("merged stats empty")
	}
	// 10 over 4 replicas → shards 3,3,2,2, visible as per-replica
	// injection spans in the merged trace.
	perReplica := map[int64]int{}
	for _, sp := range rec.Spans() {
		if sp.Name != trace.SpanInjection {
			continue
		}
		a, ok := sp.Attr(trace.AttrReplica)
		if !ok {
			t.Fatalf("injection span %d missing replica attr", sp.ID)
		}
		perReplica[a.Int]++
	}
	want := map[int64]int{0: 3, 1: 3, 2: 2, 3: 2}
	if !reflect.DeepEqual(perReplica, want) {
		t.Errorf("per-replica shards = %v, want %v", perReplica, want)
	}
	// The merged trace still supports outage reconstruction (no outages
	// expected with FIR=0, but the analysis must not error or cross wires).
	or := trace.AnalyzeOutages(rec.Spans())
	if len(or.Outages) != 0 {
		t.Errorf("FIR=0 replicated campaign reconstructed %d outages", len(or.Outages))
	}

	// More replicas than injections clamps: no empty replica clusters.
	small, err := RunReplicated(ReplicatedOptions{
		Options:  Options{Config: jsas.Config1, Params: perfectParams(), Seed: 31, Injections: 3},
		Replicas: 8,
	})
	if err != nil {
		t.Fatalf("RunReplicated clamp: %v", err)
	}
	if small.Replicas != 3 || len(small.Injections) != 3 {
		t.Errorf("clamped run: replicas = %d, injections = %d, want 3 and 3", small.Replicas, len(small.Injections))
	}
}

// TestReplicatedPartialFailure: a failing replica surfaces as a
// ReplicaError naming the replica, its seed, and how far it got — and the
// other replicas' completed injections are still pooled.
func TestReplicatedPartialFailure(t *testing.T) {
	t.Parallel()
	base := Options{
		Config: jsas.Config1, Params: perfectParams(), Seed: 21,
		Injections:      12,
		RecoveryTimeout: time.Second, // recoveries take tens of seconds → every replica fails
	}
	const replicas = 4
	merged, err := RunReplicated(ReplicatedOptions{Options: base, Replicas: replicas, Parallelism: 2})
	if err == nil {
		t.Fatal("expected replica failures with a 1 s recovery timeout")
	}
	var re *ReplicaError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *ReplicaError in the chain", err)
	}
	if !errors.Is(err, ErrBadCampaign) {
		t.Fatalf("err = %v, want ErrBadCampaign in the chain", err)
	}

	// Reproduce each replica serially and check the merge kept everything.
	wantInjections, wantSuccesses, wantFailures := 0, 0, 0
	for i := 0; i < replicas; i++ {
		ropts := base
		ropts.Injections = base.Injections / replicas
		ropts.Seed = ReplicaSeed(base.Seed, i)
		rep, rerr := Run(ropts)
		if rerr != nil {
			wantFailures++
		}
		if rep != nil {
			wantInjections += len(rep.Injections)
			wantSuccesses += rep.Successes
		}
		if i == re.Replica {
			if re.Seed != ropts.Seed {
				t.Errorf("ReplicaError.Seed = %d, want %d", re.Seed, ropts.Seed)
			}
			done := 0
			if rep != nil {
				done = len(rep.Injections)
			}
			if re.Completed != done {
				t.Errorf("ReplicaError.Completed = %d, want %d", re.Completed, done)
			}
		}
	}
	if merged == nil {
		t.Fatal("partial merged report discarded")
	}
	if len(merged.Injections) != wantInjections {
		t.Errorf("pooled injections = %d, want %d", len(merged.Injections), wantInjections)
	}
	if merged.Successes != wantSuccesses {
		t.Errorf("pooled successes = %d, want %d", merged.Successes, wantSuccesses)
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		if got := len(joined.Unwrap()); got != wantFailures {
			t.Errorf("joined errors = %d, want %d failed replicas", got, wantFailures)
		}
	} else if wantFailures > 1 {
		t.Errorf("expected a joined error for %d failed replicas", wantFailures)
	}
}

func TestReplicatedValidation(t *testing.T) {
	t.Parallel()
	if _, err := RunReplicated(ReplicatedOptions{
		Options:  Options{Config: jsas.Config1, Params: perfectParams(), Injections: 10},
		Replicas: -2,
	}); !errors.Is(err, ErrBadCampaign) {
		t.Errorf("negative replicas: err = %v", err)
	}
	if _, err := RunReplicated(ReplicatedOptions{
		Options:  Options{Config: jsas.Config1, Params: perfectParams(), Injections: 0},
		Replicas: 4,
	}); !errors.Is(err, ErrBadCampaign) {
		t.Errorf("0 injections: err = %v", err)
	}
}
