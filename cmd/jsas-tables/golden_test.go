package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := fn()
	os.Stdout = old
	w.Close()
	b := <-out
	r.Close()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return b
}

// TestGoldenOutput pins the printed Tables 2 and 3 byte for byte: a
// refactor of the solvers beneath them must not move a digit.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"csv.golden", []string{"-csv"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		got := captureStdout(t, func() error { return run(tc.args) })
		if !bytes.Equal(got, want) {
			t.Errorf("run %q: output differs from testdata/%s\n-- got --\n%s\n-- want --\n%s",
				tc.args, tc.golden, got, want)
		}
	}
}
