package spec

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/expr"
	"repro/internal/hier"
	"repro/internal/reward"
)

// HierEvaluation is the solved hierarchy result tree (re-exported so spec
// consumers need not import the hier package directly).
type HierEvaluation = hier.Evaluation

// Binding wires a child model's solved equivalent rates into a parent
// model's parameter environment — the arrow between diagrams in a RAScad
// hierarchy (the paper's Figure 2 binds `$Lambda1`/`$Mu1` this way).
type Binding struct {
	// Model is the parent model's name.
	Model string `json:"model"`
	// Child is the child model's name.
	Child string `json:"child"`
	// LambdaParam/MuParam are the parameter names the child's equivalent
	// failure/recovery rates are bound to in the parent.
	LambdaParam string `json:"lambda_param"`
	MuParam     string `json:"mu_param,omitempty"`
}

// HierDocument is a complete hierarchical model: a set of named Markov
// reward models, a root, global parameters shared by all models, and the
// bindings between them.
type HierDocument struct {
	Name        string             `json:"name"`
	Description string             `json:"description,omitempty"`
	Parameters  map[string]float64 `json:"parameters,omitempty"`
	// Uncertain optionally declares deployment-variable parameter ranges
	// (global or per-model names), enabling RunUncertainty.
	Uncertain map[string]UncertainRange `json:"uncertain,omitempty"`
	Root      string                    `json:"root"`
	Models    []Document                `json:"models"`
	Bindings  []Binding                 `json:"bindings,omitempty"`
}

// ParseHier decodes a hierarchical JSON document.
func ParseHier(r io.Reader) (*HierDocument, error) {
	var d HierDocument
	if err := decodeStrict(r, &d); err != nil {
		return nil, fmt.Errorf("spec: decode hierarchy: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Encode writes the document as indented JSON.
func (d *HierDocument) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("spec: encode hierarchy: %w", err)
	}
	return nil
}

// model returns the named submodel document.
func (d *HierDocument) model(name string) (*Document, bool) {
	for i := range d.Models {
		if d.Models[i].Name == name {
			return &d.Models[i], true
		}
	}
	return nil, false
}

// boundParams collects, per model, the parameter names provided by child
// bindings (plus the shared global parameters).
func (d *HierDocument) boundParams(model string) map[string]bool {
	out := make(map[string]bool, len(d.Parameters)+2)
	for name := range d.Parameters {
		out[name] = true
	}
	for _, b := range d.Bindings {
		if b.Model != model {
			continue
		}
		if b.LambdaParam != "" {
			out[b.LambdaParam] = true
		}
		if b.MuParam != "" {
			out[b.MuParam] = true
		}
	}
	return out
}

// Validate checks the hierarchy: a named root model, unique model names,
// bindings referencing declared models, acyclic dependencies, and every
// model valid given its global + bound parameters.
func (d *HierDocument) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("hierarchy has no name: %w", ErrBadSpec)
	}
	if len(d.Models) == 0 {
		return fmt.Errorf("hierarchy %q has no models: %w", d.Name, ErrBadSpec)
	}
	seen := make(map[string]bool, len(d.Models))
	for _, m := range d.Models {
		if seen[m.Name] {
			return fmt.Errorf("duplicate model %q: %w", m.Name, ErrBadSpec)
		}
		seen[m.Name] = true
	}
	if _, ok := d.model(d.Root); !ok {
		return fmt.Errorf("root model %q not found: %w", d.Root, ErrBadSpec)
	}
	children := make(map[string][]string)
	for i, b := range d.Bindings {
		if _, ok := d.model(b.Model); !ok {
			return fmt.Errorf("binding %d references unknown model %q: %w", i, b.Model, ErrBadSpec)
		}
		if _, ok := d.model(b.Child); !ok {
			return fmt.Errorf("binding %d references unknown child %q: %w", i, b.Child, ErrBadSpec)
		}
		if b.LambdaParam == "" {
			return fmt.Errorf("binding %d (%s→%s) has no lambda_param: %w", i, b.Model, b.Child, ErrBadSpec)
		}
		children[b.Model] = append(children[b.Model], b.Child)
	}
	if err := d.checkAcyclic(children); err != nil {
		return err
	}
	for i := range d.Models {
		m := &d.Models[i]
		if err := m.validate(d.boundParams(m.Name)); err != nil {
			return fmt.Errorf("model %q: %w", m.Name, err)
		}
	}
	return nil
}

// checkAcyclic rejects binding cycles via three-color DFS.
func (d *HierDocument) checkAcyclic(children map[string][]string) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(d.Models))
	var visit func(string) error
	visit = func(name string) error {
		switch color[name] {
		case gray:
			return fmt.Errorf("binding cycle through model %q: %w", name, ErrBadSpec)
		case black:
			return nil
		}
		color[name] = gray
		for _, c := range children[name] {
			if err := visit(c); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	for _, m := range d.Models {
		if err := visit(m.Name); err != nil {
			return err
		}
	}
	return nil
}

// Compile assembles the hierarchy into an evaluable component tree.
// Overrides replace global or per-model parameters by name (a name
// present in both a model and the globals overrides both).
func (d *HierDocument) Compile(overrides map[string]float64) (*hier.Component, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	for name := range overrides {
		if !d.isDeclaredParam(name) {
			return nil, fmt.Errorf("override %q is not a declared parameter: %w", name, ErrBadSpec)
		}
	}
	components := make(map[string]*hier.Component, len(d.Models))
	for i := range d.Models {
		m := &d.Models[i]
		components[m.Name] = hier.NewComponent(m.Name, d.buildFunc(m, overrides))
	}
	for _, b := range d.Bindings {
		components[b.Model].Use(components[b.Child], b.LambdaParam, b.MuParam)
	}
	return components[d.Root], nil
}

// isDeclaredParam reports whether name is a global or per-model parameter.
func (d *HierDocument) isDeclaredParam(name string) bool {
	if _, ok := d.Parameters[name]; ok {
		return true
	}
	for i := range d.Models {
		if _, ok := d.Models[i].Parameters[name]; ok {
			return true
		}
	}
	return false
}

// buildFunc closes over a submodel document: at evaluation time the
// environment is globals < model parameters < overrides < child bindings.
func (d *HierDocument) buildFunc(m *Document, overrides map[string]float64) hier.BuildFunc {
	return func(hp hier.Params) (*reward.Structure, error) {
		env := make(expr.MapEnv, len(d.Parameters)+len(m.Parameters)+len(hp))
		for k, v := range d.Parameters {
			env[k] = v
		}
		for k, v := range m.Parameters {
			env[k] = v
		}
		for k, v := range overrides {
			if _, ok := env[k]; ok {
				env[k] = v
			}
		}
		for k, v := range hp {
			env[k] = v
		}
		s, err := m.compileEnv(env)
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", m.Name, err)
		}
		return s, nil
	}
}

// Solve compiles and evaluates the hierarchy in one step. ctx is threaded
// through the hierarchy evaluation, aborting between components (and
// inside iterative submodel solves) when canceled.
func (d *HierDocument) Solve(ctx context.Context, overrides map[string]float64) (*hier.Evaluation, error) {
	root, err := d.Compile(overrides)
	if err != nil {
		return nil, err
	}
	ev, err := hier.EvaluateCtx(ctx, root, nil, hier.Options{})
	if err != nil {
		return nil, fmt.Errorf("spec: solve %q: %w", d.Name, err)
	}
	return ev, nil
}
