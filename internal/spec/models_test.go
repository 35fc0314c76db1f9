package spec

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/jsas"
	"repro/internal/reward"
)

// loadModel parses a shipped flat model document.
func loadModel(t *testing.T, name string) *Document {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "models", name))
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	d, err := Parse(f)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return d
}

func solveDoc(t *testing.T, d *Document) *reward.Result {
	t.Helper()
	s, err := d.Compile(nil)
	if err != nil {
		t.Fatalf("compile %s: %v", d.Name, err)
	}
	res, err := s.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("solve %s: %v", d.Name, err)
	}
	return res
}

// TestHADBPairDocumentMatchesBuilder: the shipped Figure 3 document and
// the programmatic builder agree exactly.
func TestHADBPairDocumentMatchesBuilder(t *testing.T) {
	t.Parallel()
	doc := solveDoc(t, loadModel(t, "hadb-pair.json"))
	prog, err := jsas.BuildHADBPair(jsas.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(doc.Availability-want.Availability) > 1e-14 {
		t.Errorf("availability: doc %.15f, builder %.15f", doc.Availability, want.Availability)
	}
	if math.Abs(doc.FailureFrequency-want.FailureFrequency) > 1e-18 {
		t.Errorf("failure frequency: doc %g, builder %g", doc.FailureFrequency, want.FailureFrequency)
	}
}

// TestAppServerDocumentMatchesBuilder: same for the Figure 4 document.
func TestAppServerDocumentMatchesBuilder(t *testing.T) {
	t.Parallel()
	doc := solveDoc(t, loadModel(t, "appserver-2.json"))
	prog, err := jsas.BuildAppServer(jsas.DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Solve(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(doc.Availability-want.Availability) > 1e-14 {
		t.Errorf("availability: doc %.15f, builder %.15f", doc.Availability, want.Availability)
	}
}

// TestShippedModelsRenderDOT: every shipped flat model renders to DOT.
func TestShippedModelsRenderDOT(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"hadb-pair.json", "appserver-2.json"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d := loadModel(t, name)
			s, err := d.Compile(nil)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var sink nullWriter
			if err := s.WriteDOT(&sink, d.Name); err != nil {
				t.Errorf("WriteDOT: %v", err)
			}
		})
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestThreeTierDocument: the shipped non-JSAS hierarchy loads, solves,
// and produces a sensible series-system availability.
func TestThreeTierDocument(t *testing.T) {
	t.Parallel()
	f, err := os.Open(filepath.Join("..", "..", "models", "three-tier.json"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	d, err := ParseHier(f)
	if err != nil {
		t.Fatalf("ParseHier: %v", err)
	}
	ev, err := d.Solve(context.Background(), nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if ev.Result.Availability < 0.999 || ev.Result.Availability >= 1 {
		t.Errorf("availability = %v, want high but < 1", ev.Result.Availability)
	}
	if len(ev.Children) != 3 {
		t.Errorf("children = %d, want 3 tiers", len(ev.Children))
	}
	// The series system is strictly worse than each tier alone.
	for _, tier := range ev.Children {
		if ev.Result.Availability > tier.Result.Availability {
			t.Errorf("service availability %v exceeds tier %s's %v",
				ev.Result.Availability, tier.Name, tier.Result.Availability)
		}
	}
}
