package main

import (
	"bytes"
	"testing"
)

// TestEveryModePrintsDeterministically runs each advertised mode twice into
// a buffer: the output is non-empty and identical run to run, and no
// argument prints the modes in order. An unknown mode prints nothing and is
// reported as such.
func TestEveryModePrintsDeterministically(t *testing.T) {
	var parts bytes.Buffer
	for _, name := range modeNames() {
		var a, b bytes.Buffer
		if !run(&a, name) || !run(&b, name) {
			t.Fatalf("mode %q is advertised but unknown", name)
		}
		if a.Len() == 0 {
			t.Errorf("mode %q printed nothing", name)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("mode %q differs run to run:\n%s\n---\n%s", name, a.String(), b.String())
		}
		parts.Write(a.Bytes())
	}
	var all bytes.Buffer
	if !run(&all, "") || !bytes.Equal(all.Bytes(), parts.Bytes()) {
		t.Errorf("no argument does not print every mode in order")
	}
	var out bytes.Buffer
	if run(&out, "table2") || out.Len() != 0 {
		t.Errorf("unknown mode accepted (printed %d bytes)", out.Len())
	}
}
