package spec

// Fault-domain documents: a declarative, JSON-serializable description of
// the testbed's physical failure-correlation topology (sites, power
// domains, racks) for correlated fault-injection campaigns. A domains
// document is deliberately separate from a model document — it describes
// the rig, not the model — and compiles to []testbed.Domain for
// testbed.Options / faultinject.Options.
//
// Example document:
//
//	{
//	  "domains": [
//	    {"name": "site", "as": [], "hadb": []},
//	    {"name": "rack-a", "parent": "site", "as": [0, 1], "hadb": ["0/0", "1/0"]},
//	    {"name": "rack-b", "parent": "site", "as": [2, 3], "hadb": ["0/1", "1/1"]}
//	  ]
//	}
//
// HADB members are "pair/slot" references. Structural validation against
// a concrete cluster shape (member ranges, parent links, cycles) happens
// in testbed.ValidateDomains when the cluster is built; parsing only
// checks syntax.

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/testbed"
)

// DomainsDocument is a complete fault-domain declaration.
type DomainsDocument struct {
	Domains []DomainSpec `json:"domains"`
}

// DomainSpec declares one fault domain.
type DomainSpec struct {
	// Name identifies the domain (unique within the document).
	Name string `json:"name"`
	// Parent optionally names the enclosing domain (e.g. a rack inside a
	// site); injecting into a parent fails the members of every
	// transitive child too.
	Parent string `json:"parent,omitempty"`
	// AS lists member Application Server instance indices.
	AS []int `json:"as,omitempty"`
	// HADB lists member HADB nodes as "pair/slot" references
	// (e.g. "0/1" is pair 0, slot 1).
	HADB []string `json:"hadb,omitempty"`
}

// Domain converts the spec into a testbed domain, parsing the "pair/slot"
// HADB references.
func (s DomainSpec) Domain() (testbed.Domain, error) {
	d := testbed.Domain{Name: s.Name, Parent: s.Parent, AS: s.AS}
	for _, ref := range s.HADB {
		pairStr, slotStr, ok := strings.Cut(ref, "/")
		if !ok {
			return testbed.Domain{}, fmt.Errorf("domain %q: HADB member %q is not a pair/slot reference: %w",
				s.Name, ref, ErrBadSpec)
		}
		pair, err := strconv.Atoi(pairStr)
		if err != nil {
			return testbed.Domain{}, fmt.Errorf("domain %q: HADB member %q: bad pair: %w", s.Name, ref, ErrBadSpec)
		}
		slot, err := strconv.Atoi(slotStr)
		if err != nil {
			return testbed.Domain{}, fmt.Errorf("domain %q: HADB member %q: bad slot: %w", s.Name, ref, ErrBadSpec)
		}
		d.HADB = append(d.HADB, testbed.NodeRef{Pair: pair, Slot: slot})
	}
	return d, nil
}

// ParseDomains decodes a JSON fault-domain document into testbed domains.
func ParseDomains(r io.Reader) ([]testbed.Domain, error) {
	var doc DomainsDocument
	if err := decodeStrict(r, &doc); err != nil {
		return nil, fmt.Errorf("spec: decode domains: %w", err)
	}
	if len(doc.Domains) == 0 {
		return nil, fmt.Errorf("domains document declares no domains: %w", ErrBadSpec)
	}
	return BuildDomains(doc.Domains)
}

// BuildDomains converts parsed domain specs into testbed domains — the
// shared conversion behind ParseDomains and the HTTP campaign job.
func BuildDomains(specs []DomainSpec) ([]testbed.Domain, error) {
	out := make([]testbed.Domain, len(specs))
	for i, ds := range specs {
		d, err := ds.Domain()
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}
