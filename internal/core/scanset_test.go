package core

import (
	"testing"

	"repro/internal/engine"
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

// TestSenderRegainsSkipCertificate: a node that has sent a multicast must
// get its skip certificate back once the message is delivered. Multicast
// raises the dirty flag; it used to be consumed only by a node that already
// held a certificate, and a raised flag vetoed every capture — so on a node
// without one (any node at its first request) the flag stayed up for ever,
// every later Step was a full scan, and the live runner's node never
// qualified for a timerless park.
func TestSenderRegainsSkipCertificate(t *testing.T) {
	topo := groups.Figure1()
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters})
	s := NewSystem(topo, failure.NewPattern(topo.NumProcesses()), Options{Rec: rec}, 7)
	const sender = groups.Process(0)
	s.Multicast(sender, 0, nil) // the sender's first Step has not run: no certificate yet
	if !s.Run() {
		t.Fatal("run did not quiesce")
	}
	if got := len(s.DeliveredAt(sender)); got != 1 {
		t.Fatalf("sender delivered %d messages, want 1", got)
	}
	n := s.Node(sender)
	before := *rec.Report().Sched
	if n.Step(&engine.Ctx{Now: s.Eng.Now(), E: s.Eng}) {
		t.Fatal("a step fired after quiescence")
	}
	after := *rec.Report().Sched
	if !n.Quiescent() {
		t.Error("sender holds no skip certificate after its message is delivered")
	}
	if after.Scans != before.Scans || after.SkippedScans != before.SkippedScans+1 {
		t.Errorf("step after quiescence: scans %d → %d, skipped %d → %d; want one skipped scan and no full one",
			before.Scans, after.Scans, before.SkippedScans, after.SkippedScans)
	}
}
