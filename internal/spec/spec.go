// Package spec defines a declarative, JSON-serializable Markov reward
// model format and compiles it against the expression language (package
// expr) into solvable reward structures. It is the file format the
// avail-solve CLI consumes — the open equivalent of a RAScad diagram file.
//
// Example document:
//
//	{
//	  "name": "hadb-pair",
//	  "parameters": {"La": 0.000457, "FIR": 0.001, "Trestore": 1},
//	  "states": [
//	    {"name": "Ok", "reward": 1},
//	    {"name": "Down", "reward": 0}
//	  ],
//	  "transitions": [
//	    {"from": "Ok", "to": "Down", "rate": "2*La*FIR"},
//	    {"from": "Down", "to": "Ok", "rate": "1/Trestore"}
//	  ]
//	}
//
// Rates are expressions over the document's parameters; callers may
// override parameter values at compile time (for sweeps and uncertainty
// sampling).
package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/ctmc"
	"repro/internal/expr"
	"repro/internal/reward"
)

// ErrBadSpec is reported for structurally invalid documents.
var ErrBadSpec = errors.New("spec: invalid model specification")

// State declares one model state and its reward rate.
type State struct {
	Name   string  `json:"name"`
	Reward float64 `json:"reward"`
}

// Transition declares a rate-labeled edge; Rate is an expression over the
// document parameters.
type Transition struct {
	From string `json:"from"`
	To   string `json:"to"`
	Rate string `json:"rate"`
}

// Document is a complete declarative model.
type Document struct {
	Name        string             `json:"name"`
	Description string             `json:"description,omitempty"`
	Parameters  map[string]float64 `json:"parameters,omitempty"`
	// Uncertain optionally declares ranges for parameters that vary
	// across deployments, enabling RunUncertainty on the document.
	Uncertain   map[string]UncertainRange `json:"uncertain,omitempty"`
	States      []State                   `json:"states,omitempty"`
	Transitions []Transition              `json:"transitions,omitempty"`
	// Redundancy, when set, replaces the Markov model with a
	// redundancy-structure block solvable by either backend (see Model).
	Redundancy *Redundancy `json:"redundancy,omitempty"`
}

// decodeStrict decodes exactly one JSON value from r into v: an unknown
// field is an error, and so is anything but whitespace after the value.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err == nil:
		err = errors.New("another value")
	}
	return fmt.Errorf("trailing data after the document: %w", err)
}

// Parse decodes a JSON document.
func Parse(r io.Reader) (*Document, error) {
	var d Document
	if err := decodeStrict(r, &d); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks structural consistency: nonempty states, unique names,
// transitions referencing declared states, parseable rate expressions with
// no unbound parameters.
func (d *Document) Validate() error {
	return d.validate(nil)
}

// validate is Validate with an extra set of parameter names considered
// bound (the child-model bindings of a hierarchical document).
func (d *Document) validate(extraParams map[string]bool) error {
	if d.Name == "" {
		return fmt.Errorf("model has no name: %w", ErrBadSpec)
	}
	if d.Redundancy != nil {
		return d.validateRedundancy(extraParams)
	}
	if len(d.States) == 0 {
		return fmt.Errorf("model %q has no states: %w", d.Name, ErrBadSpec)
	}
	names := make(map[string]bool, len(d.States))
	for _, s := range d.States {
		if s.Name == "" {
			return fmt.Errorf("model %q has an unnamed state: %w", d.Name, ErrBadSpec)
		}
		if names[s.Name] {
			return fmt.Errorf("duplicate state %q: %w", s.Name, ErrBadSpec)
		}
		if s.Reward < 0 {
			return fmt.Errorf("state %q has negative reward %g: %w", s.Name, s.Reward, ErrBadSpec)
		}
		names[s.Name] = true
	}
	for i, tr := range d.Transitions {
		if !names[tr.From] {
			return fmt.Errorf("transition %d references unknown state %q: %w", i, tr.From, ErrBadSpec)
		}
		if !names[tr.To] {
			return fmt.Errorf("transition %d references unknown state %q: %w", i, tr.To, ErrBadSpec)
		}
		e, err := expr.Parse(tr.Rate)
		if err != nil {
			return fmt.Errorf("transition %d (%s→%s): %w", i, tr.From, tr.To, err)
		}
		for _, v := range e.Vars() {
			if _, ok := d.Parameters[v]; !ok && !extraParams[v] {
				return fmt.Errorf("transition %d (%s→%s) references undefined parameter %q: %w",
					i, tr.From, tr.To, v, ErrBadSpec)
			}
		}
	}
	return nil
}

// Compile evaluates all rate expressions against the document parameters
// (with overrides applied on top) and builds the reward structure.
func (d *Document) Compile(overrides map[string]float64) (*reward.Structure, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	env := make(expr.MapEnv, len(d.Parameters)+len(overrides))
	for k, v := range d.Parameters {
		env[k] = v
	}
	for k, v := range overrides {
		if _, ok := d.Parameters[k]; !ok {
			return nil, fmt.Errorf("override %q is not a declared parameter: %w", k, ErrBadSpec)
		}
		env[k] = v
	}
	return d.compileEnv(env)
}

// compileEnv builds the reward structure with a fully resolved parameter
// environment (used directly by hierarchical documents, where some
// parameters are bound from child models rather than declared).
func (d *Document) compileEnv(env expr.Env) (*reward.Structure, error) {
	if d.Redundancy != nil {
		return nil, fmt.Errorf("model %q is a redundancy structure, not a Markov model; compile it with Model: %w",
			d.Name, ErrBadSpec)
	}
	b := ctmc.NewBuilder()
	rates := make([]float64, 0, len(d.States))
	for _, s := range d.States {
		b.State(s.Name)
		rates = append(rates, s.Reward)
	}
	for i, tr := range d.Transitions {
		e, err := expr.Parse(tr.Rate)
		if err != nil {
			return nil, fmt.Errorf("transition %d: %w", i, err)
		}
		v, err := e.Eval(env)
		if err != nil {
			return nil, fmt.Errorf("transition %d (%s→%s): %w", i, tr.From, tr.To, err)
		}
		from := b.State(tr.From)
		to := b.State(tr.To)
		b.Transition(from, to, v)
	}
	m, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", d.Name, err)
	}
	s, err := reward.New(m, rates)
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", d.Name, err)
	}
	return s, nil
}

// Encode writes the document as indented JSON.
func (d *Document) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("spec: encode: %w", err)
	}
	return nil
}
