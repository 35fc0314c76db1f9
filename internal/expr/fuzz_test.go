package expr

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// addRateSeeds seeds f with every transition rate expression in the
// shipped model documents.
func addRateSeeds(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed documents: %v", err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				if s, ok := x.(string); ok && k == "rate" {
					f.Add(s)
				}
				walk(x)
			}
		case []any:
			for _, x := range v {
				walk(x)
			}
		}
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(b, &doc); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		walk(doc)
	}
}

// FuzzExprParse: Parse never panics, rejects only with a *SyntaxError,
// and renders what it accepts in a form that re-parses to the same
// rendering.
func FuzzExprParse(f *testing.F) {
	addRateSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			var syn *SyntaxError
			if !errors.As(err, &syn) {
				t.Fatalf("Parse(%q): error %T %v, want a *SyntaxError", src, err, err)
			}
			return
		}
		first := e.String()
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("Parse(%q) rendered %q, which does not re-parse: %v", src, first, err)
		}
		if second := again.String(); second != first {
			t.Fatalf("Parse(%q) rendered %q, which re-renders as %q", src, first, second)
		}
	})
}
