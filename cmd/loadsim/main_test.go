package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/cliconf"
	"repro/internal/live"
	"repro/internal/workload"
)

// cliconfFor is the parsed-flag state of a default campaign over a scenario
// file, writing its document to out.
func cliconfFor(scFile, out string) cliconf.Common {
	return cliconf.Common{
		Scenarios:    "all",
		ScenarioFile: scFile,
		LoadScale:    1,
		Transport:    "mem",
		JSON:         out,
		Seed:         1,
	}
}

// tinySteady is a fast steady scenario for end-to-end runs under -short.
func tinySteady() workload.Scenario {
	return workload.Scenario{
		Name:     "tiny",
		Topo:     workload.TopoSpec{Kind: workload.TopoChain, Groups: 3},
		Arrivals: workload.ArrivalsPoisson,
		Rate:     400, Count: 40,
		ConflictRate: 1,
	}
}

// TestRunScenarioProducesSLORow runs a tiny scenario end to end against the
// live backend and checks the row: identity columns, the replay
// certificate, and an open-loop latency summary covering every delivery.
func TestRunScenarioProducesSLORow(t *testing.T) {
	sc := tinySteady()
	row, err := live.Run(sc, live.Env{Seed: 7, Transport: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	if row.Scenario != "tiny" || row.WorkloadSeed != 7 || row.Transport != "mem" {
		t.Fatalf("identity columns: %+v", row)
	}
	if row.Processes != 7 || row.Groups != 3 {
		t.Fatalf("topology columns: n=%d k=%d, want 7/3", row.Processes, row.Groups)
	}
	if row.Multicasts != int64(sc.Count) {
		t.Fatalf("multicasts %d, want %d", row.Multicasts, sc.Count)
	}
	if row.Deliveries < row.Multicasts {
		t.Fatalf("deliveries %d < multicasts %d", row.Deliveries, row.Multicasts)
	}
	want, err := workload.Digest(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if row.StreamDigest != want {
		t.Fatalf("stream digest %s, want %s", row.StreamDigest, want)
	}
	if row.OfferedPerSec <= 0 {
		t.Fatalf("offered rate not recorded: %+v", row)
	}
	if row.FsyncMode != "mem" || row.ChaosSeed != 0 {
		t.Fatalf("environment columns of a plain scenario: %+v", row)
	}
	if row.P50Ms <= 0 || row.P90Ms < row.P50Ms || row.MaxMs < row.P90Ms {
		t.Fatalf("latency summary out of order: p50=%v p90=%v max=%v", row.P50Ms, row.P90Ms, row.MaxMs)
	}
	// 40 arrivals to 3 members each are 120 samples: one lies beyond p99,
	// none beyond p999 — both columns would be the maximum renamed.
	if row.P99Ms != 0 || row.P999Ms != 0 {
		t.Fatalf("tail percentiles below the sample floor were reported: p99=%v p999=%v", row.P99Ms, row.P999Ms)
	}
}

// catalogRow is a catalog scenario scaled down to count arrivals.
func catalogRow(t *testing.T, name string, count int) workload.Scenario {
	t.Helper()
	scs, err := workload.Select(workload.Catalog(), name)
	if err != nil {
		t.Fatal(err)
	}
	sc := scs[0]
	sc.Count = count
	return sc
}

// TestRunScenarioBurstRow runs the all-conflict n=5 burst scaled down: no
// offered rate, every latency is time-to-drain from t = 0, and at 400
// arrivals to 3 members each the p99 column clears the sample floor while
// p999 does not.
func TestRunScenarioBurstRow(t *testing.T) {
	sc := catalogRow(t, "burst-n5", 400)
	row, err := live.Run(sc, live.Env{Seed: 1, Transport: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	if row.Processes != 5 || row.Groups != 2 || row.Multicasts != 400 || row.Deliveries != 1200 {
		t.Fatalf("burst row shape: %+v", row)
	}
	if row.OfferedPerSec != 0 {
		t.Fatalf("burst row carries an offered rate: %v", row.OfferedPerSec)
	}
	if row.P99Ms < row.P50Ms || row.MaxMs < row.P99Ms || row.P999Ms != 0 {
		t.Fatalf("burst latency columns: p50=%v p99=%v p999=%v max=%v", row.P50Ms, row.P99Ms, row.P999Ms, row.MaxMs)
	}
	if row.PacketsPerDelivery <= 0 {
		t.Fatalf("burst row has no packets/delivery: %+v", row)
	}
}

// TestRunScenarioChaosRow runs the chaos-seeded burst scaled down. The run
// returning a row means full delivery and a trace that passed Check();
// the row must show the nemesis at work.
func TestRunScenarioChaosRow(t *testing.T) {
	sc := catalogRow(t, "burst-chaos", 150)
	row, err := live.Run(sc, live.Env{Seed: 1, Transport: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	if row.ChaosSeed != sc.ChaosSeed || row.ChaosSeed == 0 {
		t.Fatalf("chaos_seed column %d, scenario says %d", row.ChaosSeed, sc.ChaosSeed)
	}
	if row.ChaosInjections == 0 {
		t.Fatalf("chaos row injected no faults: %+v", row)
	}
}

// TestRunScenarioFileRow runs the fsync'd file-WAL burst scaled down: the
// row carries its backing and a measured replay, and the temporary WAL
// directory is gone afterwards.
func TestRunScenarioFileRow(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	sc := catalogRow(t, "burst-file", 30)
	row, err := live.Run(sc, live.Env{Seed: 1, Transport: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	if row.FsyncMode != workload.WALFile {
		t.Fatalf("fsync_mode column %q, want %q", row.FsyncMode, workload.WALFile)
	}
	if row.RecoveryMs <= 0 || row.WALSyncs == 0 {
		t.Fatalf("file row measured no replay or no barriers: recovery_ms=%v wal_syncs=%d", row.RecoveryMs, row.WALSyncs)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("WAL directory left behind: %v", left)
	}
}

// TestRunScenarioReplaysIdenticalStream pins the campaign-level determinism
// claim: two runs of the same (scenario, seed) carry the same digest and
// multicast count; a different seed moves the digest.
func TestRunScenarioReplaysIdenticalStream(t *testing.T) {
	sc := tinySteady()
	a, err := live.Run(sc, live.Env{Seed: 3, Transport: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := live.Run(sc, live.Env{Seed: 3, Transport: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	if a.StreamDigest != b.StreamDigest || a.Multicasts != b.Multicasts {
		t.Fatalf("same (scenario, seed) reran a different stream: %s/%d vs %s/%d",
			a.StreamDigest, a.Multicasts, b.StreamDigest, b.Multicasts)
	}
	c, err := live.Run(sc, live.Env{Seed: 4, Transport: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	if c.StreamDigest == a.StreamDigest {
		t.Fatalf("seed 4 replayed seed 3's stream: %s", c.StreamDigest)
	}
}

// TestRunScenarioSoakJournal runs a soak scenario (generic mix, journal
// armed) end to end: the journal diff must pass and the fast-path share
// must be visible in the row.
func TestRunScenarioSoakJournal(t *testing.T) {
	sc := workload.Scenario{
		Name:     "tiny-soak",
		Topo:     workload.TopoSpec{Kind: workload.TopoChain, Groups: 3},
		Arrivals: workload.ArrivalsPoisson,
		Rate:     400, Count: 60,
		ConflictRate: 0.3,
		Soak:         true,
	}
	row, err := live.Run(sc, live.Env{Seed: 5, Transport: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	if row.ConflictRate != 0.3 {
		t.Fatalf("conflict rate column %v, want 0.3", row.ConflictRate)
	}
	if row.FastShare <= 0 {
		t.Fatalf("commuting mix produced no fast deliveries: %+v", row)
	}
}

// TestCampaignWritesGateableDoc runs a two-scenario campaign through the
// top-level driver via a scenario file and checks the emitted document
// loads (every row carries its identity) with one keyed row per scenario.
func TestCampaignWritesGateableDoc(t *testing.T) {
	dir := t.TempDir()
	scFile := filepath.Join(dir, "campaign.json")
	out := filepath.Join(dir, "out.json")
	const scenarios = `[
	  {"name": "a", "topo": {"kind": "chain", "groups": 3}, "arrivals": "poisson",
	   "rate": 400, "count": 30, "conflict_rate": 1},
	  {"name": "b", "topo": {"kind": "chain", "groups": 3}, "arrivals": "fixed",
	   "rate": 400, "count": 30, "conflict_rate": 1}
	]`
	if err := os.WriteFile(scFile, []byte(scenarios), 0o644); err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	cc := cliconfFor(scFile, out)
	if err := campaign(null, cc); err != nil {
		t.Fatal(err)
	}
	doc, err := benchfmt.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 2 || doc.Runs[0].Scenario != "a" || doc.Runs[1].Scenario != "b" {
		t.Fatalf("document rows: %+v", doc.Runs)
	}
}
