package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const benchOld = `goos: linux
BenchmarkBatchCodec-8     1000    100.0 ns/op    48 B/op    2 allocs/op
BenchmarkBatchCodec-8     1000    102.0 ns/op    48 B/op    2 allocs/op
BenchmarkBatchCodec-8     1000     98.0 ns/op    48 B/op    2 allocs/op
BenchmarkBatchCodec-8     1000    101.0 ns/op    48 B/op    2 allocs/op
BenchmarkBatchCodec-8     1000     99.0 ns/op    48 B/op    2 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	bs, err := parseBench(writeTemp(t, "old.txt", benchOld))
	if err != nil {
		t.Fatal(err)
	}
	b := bs["BenchmarkBatchCodec"]
	if b == nil {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", bs)
	}
	if len(b.NsPerOp) != 5 {
		t.Fatalf("got %d ns/op samples, want 5", len(b.NsPerOp))
	}
	if m, ok := b.maxAllocs(); !ok || m != 2 {
		t.Fatalf("maxAllocs = %d, %v; want 2, true", m, ok)
	}
	if m := median(b.NsPerOp); m != 100.0 {
		t.Fatalf("median = %v, want 100", m)
	}
}

func TestParseBenchNoResults(t *testing.T) {
	if _, err := parseBench(writeTemp(t, "empty.txt", "PASS\nok repro 0.1s\n")); err == nil {
		t.Fatalf("expected error on a file with no benchmark lines")
	}
}

func TestMannWhitney(t *testing.T) {
	sep := mannWhitneyP(
		[]float64{100, 101, 99, 102, 98},
		[]float64{500, 510, 490, 505, 495})
	if sep >= 0.05 {
		t.Fatalf("clearly separated samples: p = %v, want < 0.05", sep)
	}
	same := mannWhitneyP(
		[]float64{100, 101, 99, 102, 98},
		[]float64{100, 101, 99, 102, 98})
	if same < 0.5 {
		t.Fatalf("identical samples: p = %v, want ~1", same)
	}
	if p := mannWhitneyP(nil, []float64{1}); p != 1 {
		t.Fatalf("degenerate input: p = %v, want 1", p)
	}
	if p := mannWhitneyP([]float64{5, 5, 5}, []float64{5, 5, 5}); p != 1 {
		t.Fatalf("all tied: p = %v, want 1", p)
	}
}

func TestMicroGatePasses(t *testing.T) {
	// 10% noise-level drift: significant or not, it is below the ratio bar.
	newer := strings.ReplaceAll(benchOld, "10", "11")
	var out bytes.Buffer
	failed, err := microGate(&out,
		writeTemp(t, "old.txt", benchOld),
		writeTemp(t, "new.txt", newer), 0.05, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("small drift failed the gate:\n%s", out.String())
	}
}

func TestMicroGateCatchesBigSlowdown(t *testing.T) {
	newer := strings.ReplaceAll(benchOld, " 10", " 40") // ~4x slower
	newer = strings.ReplaceAll(newer, " 98.0", " 397.0")
	newer = strings.ReplaceAll(newer, " 99.0", " 399.0")
	var out bytes.Buffer
	failed, err := microGate(&out,
		writeTemp(t, "old.txt", benchOld),
		writeTemp(t, "new.txt", newer), 0.05, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("4x slowdown passed the gate:\n%s", out.String())
	}
}

func TestMicroGateCatchesAllocGrowth(t *testing.T) {
	newer := strings.ReplaceAll(benchOld, "2 allocs/op", "3 allocs/op")
	var out bytes.Buffer
	failed, err := microGate(&out,
		writeTemp(t, "old.txt", benchOld),
		writeTemp(t, "new.txt", newer), 0.05, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("allocs/op growth passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "allocs/op 2 -> 3") {
		t.Fatalf("verdict does not name the alloc growth:\n%s", out.String())
	}
}

func TestMicroGateMissingBenchmarkFails(t *testing.T) {
	newer := benchOld + "BenchmarkCoalescedFlush-8 100 50.0 ns/op 0 B/op 0 allocs/op\n"
	var out bytes.Buffer
	// Benchmark present in baseline but gone from the candidate: fail.
	failed, err := microGate(&out,
		writeTemp(t, "old.txt", newer),
		writeTemp(t, "new.txt", benchOld), 0.05, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("dropped benchmark passed the gate:\n%s", out.String())
	}
	// New benchmark with no baseline: informational only.
	out.Reset()
	failed, err = microGate(&out,
		writeTemp(t, "old.txt", benchOld),
		writeTemp(t, "new.txt", newer), 0.05, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("new benchmark without baseline failed the gate:\n%s", out.String())
	}
}

const liveBase = `{"runs": [
  {"scenario": "burst", "workload_seed": 1, "processes": 3, "groups": 2, "transport": "mem",
   "chaos_seed": 0, "conflict_rate": 1, "fsync_mode": "mem",
   "deliveries_per_sec": 8000, "packets_per_delivery": 10.5},
  {"scenario": "burst", "workload_seed": 1, "processes": 3, "groups": 2, "transport": "mem",
   "chaos_seed": 42, "conflict_rate": 1, "fsync_mode": "mem",
   "deliveries_per_sec": 900, "packets_per_delivery": 30.0}
]}`

func TestLiveGatePasses(t *testing.T) {
	cand := strings.ReplaceAll(liveBase, "8000", "7500")
	var out bytes.Buffer
	failed, err := liveGate(&out,
		writeTemp(t, "old.json", liveBase),
		writeTemp(t, "new.json", cand), 1.25, 0.25, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("in-bounds run failed the gate:\n%s", out.String())
	}
}

func TestLiveGateCatchesPacketBlowup(t *testing.T) {
	cand := strings.Replace(liveBase, "10.5", "20.0", 1)
	var out bytes.Buffer
	failed, err := liveGate(&out,
		writeTemp(t, "old.json", liveBase),
		writeTemp(t, "new.json", cand), 1.25, 0.25, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("packets/delivery blowup passed the gate:\n%s", out.String())
	}
}

func TestLiveGateCatchesThroughputCollapse(t *testing.T) {
	cand := strings.ReplaceAll(liveBase, "8000", "1000")
	var out bytes.Buffer
	failed, err := liveGate(&out,
		writeTemp(t, "old.json", liveBase),
		writeTemp(t, "new.json", cand), 1.25, 0.25, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("throughput collapse passed the gate:\n%s", out.String())
	}
}

func TestLiveGateIgnoresChaosRows(t *testing.T) {
	// Nemesis rows may swing wildly without gating.
	cand := strings.ReplaceAll(liveBase, `"deliveries_per_sec": 900`, `"deliveries_per_sec": 5`)
	cand = strings.Replace(cand, "30.0", "300.0", 1)
	var out bytes.Buffer
	failed, err := liveGate(&out,
		writeTemp(t, "old.json", liveBase),
		writeTemp(t, "new.json", cand), 1.25, 0.25, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("chaos-row swing failed the gate:\n%s", out.String())
	}
}

func TestLiveGateSoftensFileRows(t *testing.T) {
	// The same 0.15x throughput drop fails a mem row (floor 0.25) but
	// passes a file-WAL durability row (floor 0.10): fsync speed is the
	// runner's disk, not the code under test.
	const fileBase = `{"runs": [
	  {"scenario": "burst", "workload_seed": 1, "processes": 3, "groups": 1, "transport": "mem",
	   "chaos_seed": 0, "conflict_rate": 1, "fsync_mode": "file",
	   "deliveries_per_sec": 1000, "packets_per_delivery": 12.0}
	]}`
	cand := strings.ReplaceAll(fileBase, "1000", "150")
	var out bytes.Buffer
	failed, err := liveGate(&out,
		writeTemp(t, "old.json", fileBase),
		writeTemp(t, "new.json", cand), 1.25, 0.25, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("file-WAL row above the file floor failed the gate:\n%s", out.String())
	}
	out.Reset()
	memBase := strings.ReplaceAll(fileBase, `"file"`, `"mem"`)
	memCand := strings.ReplaceAll(cand, `"file"`, `"mem"`)
	failed, err = liveGate(&out,
		writeTemp(t, "old.json", memBase),
		writeTemp(t, "new.json", memCand), 1.25, 0.25, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("mem row below the mem floor passed the gate:\n%s", out.String())
	}
}

func TestLiveGateRejectsRowWithoutIdentity(t *testing.T) {
	// A row without a scenario would alias every scenario of its topology
	// onto one key. It is refused on either side, with an error that names
	// the file and the missing key — not surfaced as mass row mismatches.
	anon := strings.Replace(liveBase, `"scenario": "burst", `, "", 1)
	var out bytes.Buffer
	_, err := liveGate(&out,
		writeTemp(t, "old.json", anon),
		writeTemp(t, "new.json", liveBase), 1.25, 0.25, 0.10)
	if err == nil {
		t.Fatalf("baseline row without a scenario was not rejected")
	}
	if !strings.Contains(err.Error(), "old.json") || !strings.Contains(err.Error(), `"scenario"`) {
		t.Fatalf("rejection does not name the file and the missing key: %v", err)
	}
	if _, err := liveGate(&out,
		writeTemp(t, "old.json", liveBase),
		writeTemp(t, "new.json", anon), 1.25, 0.25, 0.10); err == nil {
		t.Fatalf("candidate row without a scenario was not rejected")
	}
	// A zero-valued key still has to be written: leaving chaos_seed out is
	// not the same statement as chaos_seed 0.
	noSeed := strings.Replace(liveBase, `"chaos_seed": 0, `, "", 1)
	if _, err := liveGate(&out,
		writeTemp(t, "old.json", liveBase),
		writeTemp(t, "new.json", noSeed), 1.25, 0.25, 0.10); err == nil ||
		!strings.Contains(err.Error(), `"chaos_seed"`) {
		t.Fatalf("row without chaos_seed: err = %v, want a refusal naming the key", err)
	}
}

func TestLiveGateSkipsAbsentColumn(t *testing.T) {
	// The candidate does not carry packets_per_delivery on its gated row (a
	// column newer or older than the other document): the column is
	// reported as not compared, the rest of the row still gates.
	cand := strings.Replace(liveBase, `, "packets_per_delivery": 10.5`, "", 1)
	var out bytes.Buffer
	failed, err := liveGate(&out,
		writeTemp(t, "old.json", liveBase),
		writeTemp(t, "new.json", cand), 1.25, 0.25, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("absent column failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "not compared") {
		t.Fatalf("absent column not reported as not compared:\n%s", out.String())
	}
	// The same holds with the column missing from the baseline side.
	out.Reset()
	failed, err = liveGate(&out,
		writeTemp(t, "old.json", cand),
		writeTemp(t, "new.json", liveBase), 1.25, 0.25, 0.10)
	if err != nil || failed {
		t.Fatalf("column absent from the baseline: failed=%v err=%v\n%s", failed, err, out.String())
	}
	// A throughput collapse on that row is still caught.
	out.Reset()
	failed, err = liveGate(&out,
		writeTemp(t, "old.json", liveBase),
		writeTemp(t, "new.json", strings.Replace(cand, "8000", "1000", 1)), 1.25, 0.25, 0.10)
	if err != nil || !failed {
		t.Fatalf("collapse next to an absent column: failed=%v err=%v\n%s", failed, err, out.String())
	}
}

const scenarioBase = `{"runs": [
  {"scenario": "steady", "workload_seed": 1, "stream_digest": "aaaa", "multicasts": 600,
   "processes": 9, "groups": 4, "transport": "mem", "chaos_seed": 0, "conflict_rate": 1,
   "fsync_mode": "mem", "deliveries_per_sec": 3000, "packets_per_delivery": 10.0},
  {"scenario": "hot-group", "workload_seed": 1, "stream_digest": "bbbb", "multicasts": 600,
   "processes": 9, "groups": 4, "transport": "mem", "chaos_seed": 0, "conflict_rate": 1,
   "fsync_mode": "mem", "deliveries_per_sec": 2000, "packets_per_delivery": 14.0}
]}`

func TestLiveGateKeysOnScenario(t *testing.T) {
	// The two scenario rows share every topology column and differ only in
	// the scenario name: a collapse on hot-group must be caught against the
	// hot-group baseline, not aliased onto steady's.
	cand := strings.Replace(scenarioBase, `"deliveries_per_sec": 2000`, `"deliveries_per_sec": 100`, 1)
	var out bytes.Buffer
	failed, err := liveGate(&out,
		writeTemp(t, "old.json", scenarioBase),
		writeTemp(t, "new.json", cand), 1.25, 0.25, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("hot-group collapse passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "hot-group") {
		t.Fatalf("verdict does not name the scenario:\n%s", out.String())
	}
	// A renamed scenario is a new row, not a silent match.
	out.Reset()
	renamed := strings.ReplaceAll(scenarioBase, `"hot-group"`, `"hot-group-v2"`)
	failed, err = liveGate(&out,
		writeTemp(t, "old.json", scenarioBase),
		writeTemp(t, "new.json", renamed), 1.25, 0.25, 0.10)
	if err != nil || failed {
		t.Fatalf("renamed scenario gated against the old name: failed=%v err=%v\n%s", failed, err, out.String())
	}
	if !strings.Contains(out.String(), "new row (no baseline)") {
		t.Fatalf("renamed scenario not reported as new:\n%s", out.String())
	}
}

func TestLiveGateCatchesDigestDrift(t *testing.T) {
	// Same scenario, same multicast count, different stream digest: the
	// generator changed underneath the baseline — fail even though the
	// performance columns are identical.
	cand := strings.Replace(scenarioBase, `"stream_digest": "aaaa"`, `"stream_digest": "cccc"`, 1)
	var out bytes.Buffer
	failed, err := liveGate(&out,
		writeTemp(t, "old.json", scenarioBase),
		writeTemp(t, "new.json", cand), 1.25, 0.25, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("stream digest drift passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "digest") {
		t.Fatalf("verdict does not mention the digest:\n%s", out.String())
	}
	// A scaled run (different multicast count) legitimately has a different
	// digest; only the count-matched comparison gates.
	scaled := strings.Replace(cand, `"multicasts": 600,
   "processes": 9, "groups": 4, "transport": "mem", "chaos_seed": 0, "conflict_rate": 1,
   "fsync_mode": "mem", "deliveries_per_sec": 3000`, `"multicasts": 60,
   "processes": 9, "groups": 4, "transport": "mem", "chaos_seed": 0, "conflict_rate": 1,
   "fsync_mode": "mem", "deliveries_per_sec": 3000`, 1)
	out.Reset()
	failed, err = liveGate(&out,
		writeTemp(t, "old.json", scenarioBase),
		writeTemp(t, "new.json", scaled), 1.25, 0.25, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("scaled run's digest difference failed the gate:\n%s", out.String())
	}
}

// burstRows is a burst-n3 baseline row as loadsim writes it: 600 requests
// to a group of three entering Algorithm 1 as one batch (33 packets for
// 1800 deliveries, 600 requests per Algorithm-1 delivery).
const burstRows = `{"runs": [
  {"scenario": "burst-n3", "workload_seed": 1, "processes": 3, "groups": 1, "transport": "mem",
   "chaos_seed": 0, "conflict_rate": 1, "fsync_mode": "mem",
   "deliveries_per_sec": 500000, "packets_per_delivery": 0.018333, "mean_batch": 600}
]}`

func TestLiveGatePacketsPerAlgorithm1Delivery(t *testing.T) {
	gate := func(cand string) (bool, string) {
		t.Helper()
		var out bytes.Buffer
		failed, err := liveGate(&out,
			writeTemp(t, "old.json", burstRows),
			writeTemp(t, "new.json", cand), 1.25, 0.25, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		return failed, out.String()
	}
	// The same burst entering as two batches: 61 packets for the same
	// deliveries is 1.85x the packets/delivery, but 10.2 packets per
	// Algorithm-1 delivery against 11.
	twoBatches := strings.NewReplacer("0.018333", "0.033889", `"mean_batch": 600`, `"mean_batch": 300`).Replace(burstRows)
	if failed, out := gate(twoBatches); failed {
		t.Fatalf("a burst entering as two batches failed the gate:\n%s", out)
	}
	// Doubled packets at the same batch count are protocol cost.
	doubled := strings.Replace(burstRows, "0.018333", "0.036667", 1)
	if failed, out := gate(doubled); !failed || !strings.Contains(out, "Algorithm-1 delivery") {
		t.Fatalf("doubled packets per Algorithm-1 delivery passed the gate, or the verdict does not say which packets:\n%s", out)
	}
	// Without mean_batch on one side the old rule holds: two batches'
	// packets/delivery fail it.
	noBatch := strings.Replace(twoBatches, `, "mean_batch": 300`, "", 1)
	if failed, out := gate(noBatch); !failed || !strings.Contains(out, "packets/delivery") {
		t.Fatalf("a row without mean_batch was not gated on packets/delivery:\n%s", out)
	}
}
