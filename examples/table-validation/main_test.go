package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenOutput runs the example and compares its output with the
// committed transcript: the example is deterministic for its fixed
// seed, so any change in what it prints is a change in behaviour.
func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from testdata/stdout.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
