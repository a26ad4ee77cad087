package benchfmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const fullRow = `{"scenario": "steady", "workload_seed": 1, "transport": "mem", "processes": 9,
  "groups": 4, "conflict_rate": 1, "fsync_mode": "mem", "chaos_seed": 0, "p50_ms": 1.5}`

func TestLoadRequiresIdentityKeys(t *testing.T) {
	doc, err := Load(writeDoc(t, `{"runs": [`+fullRow+`]}`))
	if err != nil {
		t.Fatalf("a row with the whole identity key set was refused: %v", err)
	}
	want := Key{Scenario: "steady", WorkloadSeed: 1, Processes: 9, Groups: 4,
		Transport: "mem", ConflictRate: 1, FsyncMode: "mem"}
	if got := doc.Runs[0].Key; got != want {
		t.Fatalf("key = %+v, want %+v", got, want)
	}
	// Each identity key is required on its own, zero-valued ones included,
	// and the refusal names the file and the key.
	for _, key := range identityKeys {
		var kept []string
		for _, field := range strings.Split(strings.Trim(fullRow, "{}"), ",") {
			if !strings.Contains(field, `"`+key+`"`) {
				kept = append(kept, field)
			}
		}
		path := writeDoc(t, `{"runs": [`+fullRow+`, {`+strings.Join(kept, ",")+`}]}`)
		_, err := Load(path)
		if err == nil {
			t.Errorf("row without %q was accepted", key)
			continue
		}
		for _, want := range []string{path, `"` + key + `"`, "row 1"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("refusal of a row without %q does not mention %s: %v", key, want, err)
			}
		}
	}
	if _, err := Load(writeDoc(t, strings.Replace(`{"runs": [`+fullRow+`]}`, `"steady"`, `""`, 1))); err == nil {
		t.Errorf("row with an empty scenario was accepted")
	}
	if _, err := Load(writeDoc(t, `{"runs": []}`)); err == nil {
		t.Errorf("document without rows was accepted")
	}
}

func TestLoadIgnoresUnknownAndAbsentColumns(t *testing.T) {
	// A column this binary does not know and a column the row does not carry
	// are both fine: neither is a version event.
	doc, err := Load(writeDoc(t, `{"version": 7, "runs": [`+
		strings.Replace(fullRow, `"p50_ms": 1.5`, `"column_from_the_future": 3`, 1)+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Runs[0].P50Ms != 0 {
		t.Fatalf("absent p50_ms read as %v", doc.Runs[0].P50Ms)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	// What Write emits, Load accepts: identity keys are written even when
	// zero, measured columns only when set.
	doc := NewDoc()
	doc.Runs = []LiveRow{{Key: Key{Scenario: "burst-n3", Transport: "mem", Processes: 3, Groups: 1,
		ConflictRate: 1, FsyncMode: "mem"}, P50Ms: 2}}
	path := filepath.Join(t.TempDir(), "out.json")
	if err := doc.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Runs[0] != doc.Runs[0] {
		t.Fatalf("round trip: %+v != %+v", back.Runs[0], doc.Runs[0])
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "p99_ms") || !strings.Contains(string(blob), `"chaos_seed": 0`) {
		t.Fatalf("unset measured column written, or zero identity key left out:\n%s", blob)
	}
}

func TestColumnAbsentOnOneSideIsNotCompared(t *testing.T) {
	both := Column{Old: 10, New: 12.5}
	if !both.Compared() || both.Ratio() != 1.25 || both.Format("%.1f") != "10.0 -> 12.5" {
		t.Fatalf("column on both sides: compared=%v ratio=%v %q", both.Compared(), both.Ratio(), both.Format("%.1f"))
	}
	for _, c := range []Column{{Old: 10}, {New: 10}, {}} {
		if c.Compared() {
			t.Errorf("%+v reported as compared", c)
		}
		if got := c.Format("%.1f"); got != "not compared" {
			t.Errorf("%+v formats as %q, want \"not compared\" and no delta", c, got)
		}
	}
}
