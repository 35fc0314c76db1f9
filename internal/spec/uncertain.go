package spec

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/ctmc"
	"repro/internal/uncertainty"
)

// UncertainRange declares, inside a model document, the interval a
// parameter may take across deployments — the document-level equivalent of
// the ranges the paper's §7 uncertainty analysis samples.
type UncertainRange struct {
	Low  float64 `json:"low"`
	High float64 `json:"high"`
}

// uncertaintyRanges converts a document's uncertain-parameter map after
// validating that each name is a declared parameter with finite, ordered
// bounds.
//
// The ranges are emitted sorted by name: uncertainty.RunCtx maps its
// pre-drawn unit samples to parameters by range index, so emitting them
// in Go's randomized map-iteration order would make same-seed runs
// non-reproducible (and defeat the canonical-hash result cache).
func uncertaintyRanges(uncertain map[string]UncertainRange, declared func(string) bool) ([]uncertainty.Range, error) {
	if len(uncertain) == 0 {
		return nil, fmt.Errorf("document declares no uncertain parameters: %w", ErrBadSpec)
	}
	names := make([]string, 0, len(uncertain))
	for name := range uncertain {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]uncertainty.Range, 0, len(names))
	for _, name := range names {
		r := uncertain[name]
		if !declared(name) {
			return nil, fmt.Errorf("uncertain parameter %q is not declared: %w", name, ErrBadSpec)
		}
		// NaN compares false against everything, so the low > high check
		// alone would wave non-finite bounds through into the sampler.
		if math.IsNaN(r.Low) || math.IsInf(r.Low, 0) || math.IsNaN(r.High) || math.IsInf(r.High, 0) {
			return nil, fmt.Errorf("uncertain parameter %q: non-finite bounds [%g, %g]: %w", name, r.Low, r.High, ErrBadSpec)
		}
		if r.Low > r.High {
			return nil, fmt.Errorf("uncertain parameter %q: low %g > high %g: %w", name, r.Low, r.High, ErrBadSpec)
		}
		out = append(out, uncertainty.Range{Name: name, Low: r.Low, High: r.High})
	}
	return out, nil
}

// RunUncertainty samples the document's uncertain parameters, re-solving
// the model per sample, and returns the downtime distribution — RAScad's
// uncertainty analysis for any user model.
func (d *Document) RunUncertainty(opts uncertainty.Options) (*uncertainty.Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	ranges, err := uncertaintyRanges(d.Uncertain, func(name string) bool {
		_, ok := d.Parameters[name]
		return ok
	})
	if err != nil {
		return nil, err
	}
	solver := func(assignment map[string]float64) (float64, error) {
		s, err := d.Compile(assignment)
		if err != nil {
			return 0, err
		}
		res, err := s.Solve(ctmc.SolveOptions{})
		if err != nil {
			return 0, err
		}
		return res.YearlyDowntimeMinutes, nil
	}
	return uncertainty.Run(ranges, solver, opts)
}

// RunUncertainty is the hierarchical variant: overrides are applied across
// globals and per-model parameters by name.
func (d *HierDocument) RunUncertainty(opts uncertainty.Options) (*uncertainty.Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	ranges, err := uncertaintyRanges(d.Uncertain, d.isDeclaredParam)
	if err != nil {
		return nil, err
	}
	solver := func(assignment map[string]float64) (float64, error) {
		ev, err := d.Solve(context.Background(), assignment)
		if err != nil {
			return 0, err
		}
		return ev.Result.YearlyDowntimeMinutes, nil
	}
	return uncertainty.Run(ranges, solver, opts)
}
