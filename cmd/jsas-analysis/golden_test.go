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

// TestGoldenOutput pins the printed dual-cluster upgrade comparison byte
// for byte: a refactor of the solvers beneath it must not move a digit.
func TestGoldenOutput(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "upgrades.golden"))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-upgrades", "4", "-window", "2h"}
	got := captureStdout(t, func() error { return run(args) })
	if !bytes.Equal(got, want) {
		t.Errorf("run %q: output differs from testdata/upgrades.golden\n-- got --\n%s\n-- want --\n%s",
			args, got, want)
	}
}
