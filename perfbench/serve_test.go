package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/spec"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	pool := jobPool(42)
	a := schedule(7, pool, 600, 10*time.Second)
	b := schedule(7, jobPool(42), 600, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := schedule(8, pool, 600, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !reflect.DeepEqual(jobPool(42), pool) || reflect.DeepEqual(jobPool(43), pool) {
		t.Fatal("job pool is not a function of the seed")
	}
}

func TestScheduleArrivalsAndMix(t *testing.T) {
	const rate, dur = 600.0, 60 * time.Second
	pool := jobPool(1)
	inPool := map[int64]bool{}
	for _, s := range pool {
		inPool[s] = true
	}
	ops := schedule(3, pool, rate, dur)
	want := rate * dur.Seconds()
	if n := float64(len(ops)); math.Abs(n-want) > 4*math.Sqrt(want) {
		t.Errorf("%v arrivals, want about %v", n, want)
	}
	var counts [numOpKinds]int
	var pooled, jobs int
	fresh := map[int64]bool{}
	for i, o := range ops {
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		if o.due < 0 || o.due >= dur {
			t.Fatalf("op %d due at %v, outside the step", i, o.due)
		}
		counts[o.kind]++
		switch o.kind {
		case opJSAS:
			if o.arg < 0 || o.arg >= len(table3Rows) {
				t.Fatalf("jsas row %d", o.arg)
			}
		case opSolveBayes:
			if o.arg < quorumMin || o.arg >= quorumMax {
				t.Fatalf("quorum n=%d", o.arg)
			}
		case opUncertainty, opCampaign:
			jobs++
			if o.pooled {
				pooled++
				if !inPool[o.seed] {
					t.Fatalf("pooled seed %d is not in the pool", o.seed)
				}
			} else if fresh[o.seed] || inPool[o.seed] {
				t.Fatalf("fresh seed %d repeats", o.seed)
			} else {
				fresh[o.seed] = true
			}
		}
	}
	for k, share := range opMix {
		got := 100 * float64(counts[k]) / float64(len(ops))
		if math.Abs(got-float64(share)) > 1.5 {
			t.Errorf("%s is %.1f%% of the mix, want %d%%", opNames[k], got, share)
		}
	}
	if half := float64(pooled) / float64(jobs); math.Abs(half-0.5) > 0.03 {
		t.Errorf("%.3f of jobs use pooled seeds, want 0.5", half)
	}
}

func TestLateGrowing(t *testing.T) {
	steady := make([]float64, 400)
	for i := range steady {
		steady[i] = float64(i % 7)
	}
	if lateGrowing(steady) {
		t.Error("bounded lateness flagged as growing")
	}
	growing := make([]float64, 400)
	for i := range growing {
		growing[i] = float64(i) / 4
	}
	if !lateGrowing(growing) {
		t.Error("linearly growing lateness not flagged")
	}
	if lateGrowing([]float64{100, 200}) {
		t.Error("too few samples to judge")
	}
}

func TestQuorumDocumentsParse(t *testing.T) {
	for n := quorumMin; n < quorumMax; n++ {
		doc, err := spec.Parse(bytes.NewReader(quorumDocument(n)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if doc.Redundancy == nil || doc.Redundancy.LeafCount() != n {
			t.Fatalf("n=%d: not an n-leaf redundancy document", n)
		}
	}
}
