package live

import (
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/obs"
)

// countedSystem builds a live system over the reliable fabric whose counters
// the test reads through Report.
func countedSystem(topo *groups.Topology, pat *failure.Pattern, cfg Config) *System {
	cfg.Opt.Rec = obs.NewRecorder(obs.Options{Level: obs.LevelCounters, WallClock: true})
	return NewSystem(topo, pat, net.New(topo.NumProcesses()), cfg)
}

// TestIdleNodesNearZeroWork pins down the event-driven contract from both
// sides. Idle side: a started system with no traffic does nothing — no
// action, no guard scan beyond the start-up pass, and no timer wakeup at all:
// a quiescent node parks without a heartbeat. Liveness side: a multicast
// issued after a long idle stretch still delivers, and with no timer
// anywhere it can only have got there on notify wakeups — a lost
// notification would hang the run, not delay it by a beat.
func TestIdleNodesNearZeroWork(t *testing.T) {
	topo := groups.Figure1()
	sys := countedSystem(topo, failure.NewPattern(topo.NumProcesses()), Config{})
	sys.Start()
	defer sys.Stop()

	time.Sleep(300 * time.Millisecond)
	idle := sys.Report().Sched
	if idle == nil {
		t.Fatal("no sched counters recorded")
	}
	procs := int64(topo.NumProcesses())
	if idle.Actions != 0 {
		t.Errorf("idle system fired %d actions; want 0", idle.Actions)
	}
	if idle.Scans > procs {
		t.Errorf("idle system ran %d guard scans across %d processes; want the start-up pass only", idle.Scans, procs)
	}
	if idle.TimerWakeups != 0 {
		t.Errorf("%d timer wakeups over 300ms idle; want 0: no node is waiting for time", idle.TimerWakeups)
	}

	sys.Multicast(0, 0, []byte("wake"))
	if !sys.AwaitDelivery(10 * time.Second) {
		t.Fatal("delivery stalled after the idle period")
	}
	busy := sys.Report().Sched
	if busy.Actions == 0 {
		t.Error("delivery happened but no actions were counted")
	}
	if busy.NotifyWakeups == 0 {
		t.Error("delivery completed without a single notify wakeup")
	}
	sys.Stop()
	for p, n := range sys.Nodes {
		if size := n.ScanSetSize(); size != 0 {
			t.Errorf("p%d: scan set holds %d messages after delivery", p, size)
		}
	}
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}
}

// TestHeartbeatOnlyWhileTimeGated holds a message in a time-gated phase and
// lets time alone release it. On Figure 1, g1∩g2 = {p2}: with p2 crashed, the
// tuples (m, g1, ·) of a multicast to g2 = {p0, p2, p3} are never written,
// and line 18 keeps m pending at p0 and p3 for as long as γ(g2) still names
// g1 — until the detector's stabilisation delay after the scheduled crash has
// passed. No log changes at that instant; only a node that is rescanning on
// its heartbeat notices. So: the heartbeat is armed while m is held, m is
// delivered within a few beats of the instant γ lets go, and once nothing is
// time-gated any more the heartbeat is off again.
func TestHeartbeatOnlyWhileTimeGated(t *testing.T) {
	const crashAt, delay = 20, 150 // ticks = ms
	topo := groups.Figure1()
	pat := failure.NewPattern(topo.NumProcesses()).WithCrash(2, crashAt)
	sys := countedSystem(topo, pat, Config{Opt: core.Options{FD: fd.Options{Delay: delay}}})
	sys.Start()
	defer sys.Stop()

	for !sys.Net.Crashed(2) { // the crash timer enacts the schedule
		time.Sleep(time.Millisecond)
	}
	m := sys.Multicast(0, 2, nil)
	release := failure.Time(crashAt + delay)
	for sys.Now() < release-40 {
		time.Sleep(time.Millisecond)
	}
	held := sys.Report().Sched.TimerWakeups
	if held == 0 {
		t.Error("no timer wakeup while a message sat in a time-gated phase: the heartbeat is not armed")
	}
	if got := len(sys.Sh.Deliveries()); got != 0 {
		t.Fatalf("%d deliveries while γ(g2) still names g1", got)
	}
	if !sys.AwaitDelivery(10 * time.Second) {
		t.Fatal("the message was not delivered once γ let go of g1∩g2")
	}
	at, _ := sys.Sh.FirstDeliveredAt(m.ID)
	t.Logf("γ(g2) drops g1 at tick %d; first delivery at tick %d; %d timer wakeups while held", release, at, held)
	// heartbeat + ε: the beat, the commit and stable actions it starts (a
	// few replicated ops) and this host's millisecond timers.
	if slack := failure.Time(10 * heartbeat / tickEvery); at < release || at > release+slack {
		t.Errorf("delivered at tick %d; want within [%d, %d]: γ opens the guard at %d and the next heartbeat sees it", at, release, release+slack, release)
	}

	time.Sleep(4 * heartbeat) // the last armed beat fires, leaves the node quiescent
	before := sys.Report().Sched.TimerWakeups
	time.Sleep(100 * time.Millisecond)
	if after := sys.Report().Sched.TimerWakeups; after != before {
		t.Errorf("%d timer wakeups in 100ms after delivery; want 0: nothing is time-gated any more", after-before)
	}
	sys.Stop()
	for _, v := range sys.Check() {
		t.Errorf("specification violation: %v", v)
	}
}

// TestAnnounceWakesOwnedMembers: a registration by another daemon's sender
// grows L_g, which the group-sequential gate reads and no replica apply
// announces. A parked node has no timer to notice it later, so Multicast for
// a sender this daemon does not embody wakes the owned members of the
// destination group — and nobody else.
func TestAnnounceWakesOwnedMembers(t *testing.T) {
	topo := groups.Figure1() // g1 = {p1, p2}
	sys := countedSystem(topo, failure.NewPattern(topo.NumProcesses()), Config{Local: groups.NewProcSet(1, 3)})
	sys.Start()
	defer sys.Stop()

	scans := func() int64 {
		if sc := sys.Report().Sched; sc != nil { // absent until the first pass
			return sc.Scans
		}
		return 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for scans() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	before := sys.Report().Sched
	if before.Scans != 2 || before.NotifyWakeups != 0 {
		t.Fatalf("before the announce: %d scans, %d notify wakeups; want the two start-up passes and no wakeup", before.Scans, before.NotifyWakeups)
	}
	sys.Multicast(2, 1, nil) // p2 lives in another daemon; p1 ∈ g1 is ours, p3 is not in g1
	for scans() == before.Scans && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	after := sys.Report().Sched
	if got := after.NotifyWakeups - before.NotifyWakeups; got != 1 {
		t.Errorf("%d notify wakeups after the announce; want 1 (p1)", got)
	}
	if got := after.Scans - before.Scans; got != 1 {
		t.Errorf("%d scans after the announce; want 1: p1 rescans, p3 ∉ g1 stays parked", got)
	}
	if after.TimerWakeups != 0 {
		t.Errorf("%d timer wakeups; want 0", after.TimerWakeups)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleBudget is the genuineness of silence, as a budget: on the
// benchmark's chain (k = 4, nine processes, fifteen replicas), after forty
// multicasts have warmed every log and lease, four seconds in which nobody
// multicasts cost next to nothing — no node timer fires, no replica hedges
// (nothing says a slot is missing), and what is left on the wire is the
// idleProbe backstop: one probe per replica per second to each scope peer.
// Measured the same way at the parent commit: 40 CPU-ms/s, 465 packets/s,
// 1800 timer wakeups/s.
func TestIdleBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("four seconds of measured silence")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, as the benchmark's children run
	const k, warm, silence = 4, 40, 4 * time.Second
	topo := benchChain(t, k)
	sys := countedSystem(topo, failure.NewPattern(topo.NumProcesses()), Config{})
	sys.Start()
	defer sys.Stop()
	for i := 0; i < warm; i++ {
		g := groups.GroupID(i % k)
		members := topo.Group(g).Members()
		sys.Multicast(members[i%len(members)], g, nil)
	}
	if !sys.AwaitDelivery(30 * time.Second) {
		t.Fatalf("warm-up not delivered: %d deliveries", len(sys.Sh.Deliveries()))
	}
	time.Sleep(200 * time.Millisecond) // stragglers: stable tuples nobody waits for, last hedges
	runtime.GC()

	before, cpu0, t0 := sys.Report(), cpuTime(t), time.Now()
	time.Sleep(silence)
	after, cpu, secs := sys.Report(), cpuTime(t)-cpu0, time.Since(t0).Seconds()

	cpuMs := float64(cpu) / float64(time.Millisecond) / secs
	packets := float64(after.Net.Packets-before.Net.Packets) / secs
	timers := after.Sched.TimerWakeups - before.Sched.TimerWakeups
	hedges := after.Replog.Hedges - before.Replog.Hedges
	t.Logf("idle: %.2f CPU-ms/s, %.1f packets/s, %d timer wakeups, %d hedges, %d idle probes, %d scans over %.1fs",
		cpuMs, packets, timers, hedges, after.Replog.IdleProbes-before.Replog.IdleProbes, after.Sched.Scans-before.Sched.Scans, secs)
	if !raceEnabled && cpuMs > 2 {
		t.Errorf("idle system burns %.2f CPU-ms/s; budget 2", cpuMs)
	}
	if packets > 40 {
		t.Errorf("idle system sends %.1f packets/s; budget 40 (15 replicas × 2 peers per idleProbe)", packets)
	}
	if timers != 0 {
		t.Errorf("%d node timer wakeups in silence; want 0", timers)
	}
	if hedges != 0 {
		t.Errorf("%d hedges in silence; want 0: no replica has evidence of an undecided slot", hedges)
	}
	if got := after.Sched.Actions - before.Sched.Actions; got != 0 {
		t.Errorf("%d actions fired in silence", got)
	}
}
