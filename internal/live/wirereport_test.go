package live

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestChaosKeepsWireReport: wrapping the TCP fabric in the nemesis must not
// hide its socket-level accounting — a chaos-seeded loadsim row over
// -transport tcp carries wire_* columns like any other tcp row.
func TestChaosKeepsWireReport(t *testing.T) {
	topo := groups.Figure1()
	f, err := wire.NewFabric(topo.NumProcesses())
	if err != nil {
		t.Fatal(err)
	}
	c := chaos.Wrap(f, 3) // no faults set: a transparent wrapper
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters, WallClock: true})
	sys := NewSystem(topo, failure.NewPattern(topo.NumProcesses()), c, Config{Opt: core.Options{Rec: rec}})
	sys.Start()
	defer sys.Stop()
	sys.Multicast(0, 0, []byte("a"))
	if !sys.AwaitDelivery(30 * time.Second) {
		t.Fatal("run did not reach full delivery")
	}
	rep := sys.Report()
	if rep.Chaos == nil || rep.Net == nil {
		t.Fatalf("chaos-wrapped tcp run lost its chaos or net section: %+v", rep)
	}
	if rep.Wire == nil {
		t.Fatal("chaos-wrapped tcp run reports no wire section")
	}
	if rep.Wire.FramesEncoded == 0 {
		t.Errorf("wire section counts no encoded frames: %+v", rep.Wire)
	}
}
