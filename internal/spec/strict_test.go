package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testbed"
)

// readModel returns the bytes of a shipped document under models/.
func readModel(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "models", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParseRejectsTrailingData: each parser takes exactly one JSON value.
// Junk or a second value after the document is an error; trailing
// whitespace is not.
func TestParseRejectsTrailingData(t *testing.T) {
	t.Parallel()
	parsers := []struct {
		name  string
		file  string
		parse func([]byte) error
	}{
		{"Parse", "hadb-pair.json", func(b []byte) error {
			_, err := Parse(bytes.NewReader(b))
			return err
		}},
		{"ParseHier", "jsas-config1.json", func(b []byte) error {
			_, err := ParseHier(bytes.NewReader(b))
			return err
		}},
		{"ParseDomains", "domains-config1.json", func(b []byte) error {
			_, err := ParseDomains(bytes.NewReader(b))
			return err
		}},
	}
	for _, p := range parsers {
		doc := readModel(t, p.file)
		for _, tc := range []struct {
			name, tail string
			ok         bool
		}{
			{"whitespace", "\n \t\r\n", true},
			{"junk", "garbage{", false},
			{"second object", "{}", false},
			{"second document", string(doc), false},
			{"closing brace", "}", false},
		} {
			err := p.parse(append(append([]byte(nil), doc...), tc.tail...))
			if tc.ok && err != nil {
				t.Errorf("%s + %s: %v", p.name, tc.name, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("%s + %s: accepted trailing data", p.name, tc.name)
			}
		}
	}
}

// addModelSeeds seeds a fuzz target with every shipped document under
// models/ whose name matches pattern.
func addModelSeeds(f *testing.F, pattern string) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", pattern))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed documents: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// checkFixpoint asserts that a parsed document is canonical: marshaling
// it, parsing that, and marshaling again gives the same bytes. This is
// the form jobs.CanonicalHash hashes, so equal documents hash equal.
func checkFixpoint[D any](t *testing.T, d D, parse func([]byte) (D, error)) {
	t.Helper()
	first, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal parsed document: %v", err)
	}
	again, err := parse(first)
	if err != nil {
		t.Fatalf("re-parse of marshaled document %s: %v", first, err)
	}
	second, err := json.Marshal(again)
	if err != nil {
		t.Fatalf("marshal re-parsed document: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("not a fixpoint:\n first %s\nsecond %s", first, second)
	}
}

// FuzzParse: Parse never panics, rejects only with an error, and every
// document it accepts is a canonical fixpoint.
func FuzzParse(f *testing.F) {
	addModelSeeds(f, "*.json")
	parse := func(b []byte) (*Document, error) { return Parse(bytes.NewReader(b)) }
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := parse(b)
		if err != nil {
			if d != nil {
				t.Fatalf("error %v with a non-nil document", err)
			}
			return
		}
		checkFixpoint(t, d, parse)
	})
}

// FuzzParseHier is FuzzParse for hierarchical documents.
func FuzzParseHier(f *testing.F) {
	addModelSeeds(f, "*.json")
	parse := func(b []byte) (*HierDocument, error) { return ParseHier(bytes.NewReader(b)) }
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := parse(b)
		if err != nil {
			if d != nil {
				t.Fatalf("error %v with a non-nil document", err)
			}
			return
		}
		checkFixpoint(t, d, parse)
	})
}

// FuzzParseDomains: ParseDomains never panics and rejects only with an
// error and no domains. Campaign jobs take domains from the network, so
// what it accepts must also go through testbed.ValidateDomains, the
// campaign's structural check, without panicking.
func FuzzParseDomains(f *testing.F) {
	addModelSeeds(f, "domains-*.json")
	f.Fuzz(func(t *testing.T, b []byte) {
		domains, err := ParseDomains(bytes.NewReader(b))
		if err != nil {
			if domains != nil {
				t.Fatalf("error %v with non-nil domains %+v", err, domains)
			}
			return
		}
		_ = testbed.ValidateDomains(domains, 2, 2)
	})
}

// TestParseErrorsAreTyped keeps the strict decoder's errors wrapped: a
// trailing-data rejection still names the underlying syntax error.
func TestParseErrorsAreTyped(t *testing.T) {
	t.Parallel()
	doc := readModel(t, "hadb-pair.json")
	_, err := Parse(bytes.NewReader(append(doc, "garbage{"...)))
	var syn *json.SyntaxError
	if !errors.As(err, &syn) {
		t.Fatalf("err = %v, want a wrapped *json.SyntaxError", err)
	}
}
