package main

import (
	"bytes"
	"os"
	"testing"
)

// TestEveryModePrintsDeterministically runs each advertised mode twice into
// a buffer: the output is non-empty and identical run to run, and no
// argument prints the modes in order — byte for byte the committed
// testdata/figures.golden, so a change that moves a sim figure fails here.
// An unknown mode prints nothing and is reported as such.
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
	golden, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all.Bytes(), golden) {
		t.Errorf("the figures moved from testdata/figures.golden:\n%s\n---\n%s\n"+
			"(if the change is deliberate, regenerate the file with "+
			"`go run ./cmd/figures > cmd/figures/testdata/figures.golden` and say why in the commit)",
			all.String(), golden)
	}
	var out bytes.Buffer
	if run(&out, "table2") || out.Len() != 0 {
		t.Errorf("unknown mode accepted (printed %d bytes)", out.Len())
	}
}
