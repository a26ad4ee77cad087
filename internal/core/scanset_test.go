package core

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/obs"
)

// TestScanSetBoundedSoak pushes a four-digit message count through the sim
// system and asserts the scheduler's bookkeeping stays bounded: once every
// message is delivered, every node's scan set must be empty — delivered
// messages retire instead of being rescanned forever (the pre-ready-set
// scheduler kept every message it had ever seen in the per-step scan).
func TestScanSetBoundedSoak(t *testing.T) {
	msgs := 1000
	if testing.Short() {
		msgs = 200
	}
	topo := groups.Figure1()
	pat := failure.NewPattern(topo.NumProcesses())
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters})
	s := NewSystem(topo, pat, Options{Rec: rec}, 42)
	k := topo.NumGroups()
	for i := 0; i < msgs; i++ {
		g := groups.GroupID(i % k)
		members := topo.Group(g).Members()
		// Pace the load a little so the run is a long stream of small
		// in-flight windows — the shape that would make an unbounded scan
		// set quadratic.
		s.MulticastAt(failure.Time(i/4), members[i%len(members)], g, nil)
	}
	if !s.Run() {
		t.Fatalf("soak of %d messages did not quiesce", msgs)
	}
	for _, v := range s.Check() {
		t.Fatalf("specification violation: %v", v)
	}
	for p := 0; p < topo.NumProcesses(); p++ {
		if n := s.Node(groups.Process(p)).ScanSetSize(); n != 0 {
			t.Errorf("p%d: scan set holds %d messages after full delivery; delivered messages must retire", p, n)
		}
	}
	sched := rec.Report().Sched
	if sched == nil || sched.Actions == 0 || sched.Scans == 0 {
		t.Fatalf("sched counters missing or empty: %+v", sched)
	}
	// The predecessor guards must stay bounded too. This soak is a paced
	// burst: the slowest process falls up to ~190 messages behind, every scan
	// re-evaluates the guard of each message it has not delivered, and each
	// evaluation stops at its first undelivered predecessor — 1.6 entries
	// from the delivered frontier (39 visits per delivery at 200 messages, 130
	// at 1000; the counts repeat exactly). Started at the log's first entry
	// instead, the same guards visit 652 and 8782.
	perDelivery := float64(sched.GuardVisits) / float64(len(s.Sh.Deliveries()))
	t.Logf("guard visits per delivery: %.2f", perDelivery)
	if sched.GuardVisits == 0 || perDelivery > 300 {
		t.Errorf("%.2f guard visits per delivery over %d messages, want under 300: some guard rescans history", perDelivery, msgs)
	}
}
