package core

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/workload"
)

// armGuardOracle makes every predsAtLeast call of a Sim-backed run answer to
// a brute-force evaluation of the same guard: the walk over every message
// before m in the log, exactly as the guards were written before they had a
// frontier. It also checks what the frontier claims — every message below it
// is delivered at the node — on each call.
func armGuardOracle(t *testing.T, s *System) {
	t.Helper()
	s.Sh.guardOracle = func(n *Node, l *nodeLog, id msg.ID, min Phase, got bool) {
		inner := l.LogObject.(simLog).l.Inner()
		want := true
		for _, prev := range inner.MessagesBefore(logobj.MsgDatum(id)) {
			if n.skipOrder(prev, id) {
				continue
			}
			if n.Phase(prev) < min {
				want = false
				break
			}
		}
		if got != want {
			t.Fatalf("p%d %s: predsAtLeast(m%d, %v) = %v, brute force says %v (front %d)",
				n.p, inner.Name(), id, min, got, want, l.front)
		}
		for _, prev := range inner.Messages() {
			if inner.Pos(logobj.MsgDatum(prev)) < l.front && n.Phase(prev) != PhaseDeliver {
				t.Fatalf("p%d %s: frontier %d, but m%d at %d is in phase %v",
					n.p, inner.Name(), l.front, prev, inner.Pos(logobj.MsgDatum(prev)), n.Phase(prev))
			}
		}
	}
}

// steadyStream is the benchmark's steady-mem stream (benchmarks/amcastbench:
// chain k=4, Poisson 250/s, uniform destinations, all-conflict), generated
// for 2000 arrivals and rescaled so the last falls at count/rate, as the
// benchmark's sim probe does.
func steadyStream(t *testing.T, seed int64) (*groups.Topology, []workload.Arrival) {
	t.Helper()
	sc := workload.Scenario{
		Name:     "steady-mem",
		Topo:     workload.TopoSpec{Kind: workload.TopoChain, Groups: 4},
		Arrivals: workload.ArrivalsPoisson,
		Rate:     250, Count: 2000,
		ConflictRate: 1,
	}
	gen, err := workload.NewGen(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []workload.Arrival
	for a, ok := gen.Next(); ok; a, ok = gen.Next() {
		out = append(out, a)
	}
	want := time.Duration(float64(sc.Count) / sc.Rate * float64(time.Second))
	last := out[len(out)-1].At
	for i := range out {
		out[i].At = time.Duration(float64(out[i].At) * float64(want) / float64(last))
	}
	topo, err := sc.Topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, out
}

// runSteady drives the first n arrivals of the steady stream through the sim
// backend under the §4.3 cost model, at 100 000 ticks per second.
func runSteady(t *testing.T, n int, seed int64) (*System, *obs.Recorder) {
	t.Helper()
	topo, arrivals := steadyStream(t, seed)
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters})
	s := NewSystemWithConfig(topo, failure.NewPattern(topo.NumProcesses()),
		Options{ChargeObjects: true, Rec: rec},
		engine.Config{Seed: seed, Policy: engine.RandomOrder, MaxSteps: 1 << 40})
	for _, a := range arrivals[:n] {
		s.MulticastClassedAt(failure.Time(a.At.Seconds()*100_000), a.Src, a.Dst, nil, a.Class)
	}
	if !s.Run() {
		t.Fatalf("no quiescence on %d arrivals", n)
	}
	return s, rec
}

// TestSteadyStreamGolden pins the behaviour of Algorithm 1 on the first 1000
// arrivals of the steady-mem stream: total steps, total messages, and every
// process's delivery order. A guard that answers differently even once
// changes which action some Step fires, and with it all three. The orders
// are those of the commit before the guards had an index and a frontier
// (25913a7). Steps and messages were 14503 and 105050 until requests waiting
// in L_g entered Algorithm 1 as one batch (DESIGN.md §13); the same code
// writing every batch as a run of one reproduces both. The stream opens the
// gate six times on two waiting requests, and each of those six
// constituents skips an instance of its own: 80 steps and 596 messages,
// ≈ 13 and 99 per constituent.
func TestSteadyStreamGolden(t *testing.T) {
	s, _ := runSteady(t, 1000, 1)
	h := fnv.New64a()
	for p := range s.Nodes {
		fmt.Fprintf(h, "p%d:%v;", p, s.DeliveredAt(groups.Process(p)))
	}
	const (
		wantSteps  = 14423
		wantMsgs   = 104454
		wantDeliv  = 3000
		wantOrders = "c59d67328103a76b"
	)
	orders := fmt.Sprintf("%016x", h.Sum64())
	if got := s.Eng.TotalSteps(); got != wantSteps {
		t.Errorf("total steps %d, want %d", got, wantSteps)
	}
	if got := s.Eng.Messages(); got != wantMsgs {
		t.Errorf("total messages %d, want %d", got, wantMsgs)
	}
	if got := len(s.Sh.Deliveries()); got != wantDeliv {
		t.Errorf("deliveries %d, want %d", got, wantDeliv)
	}
	if orders != wantOrders {
		t.Errorf("per-process delivery orders hash %s, want %s", orders, wantOrders)
	}
}

// TestGuardVisitsDoNotGrowWithHistory is the regression fence for every guard
// change: the predecessor entries the guards examine per delivery must not
// depend on how long the run has been going. The same seeded stream is run
// for 500 and for 2000 arrivals (125 and 500 under -short); the counts repeat
// exactly, so the bound cannot flake. Measured 5.46 and 5.53 visits per
// delivery (ratio 1.012); with every walk started at the first entry, as the
// guards did before the frontier, the same runs give 270 and 1097 (ratio
// 4.06).
func TestGuardVisitsDoNotGrowWithHistory(t *testing.T) {
	perDelivery := func(n int) float64 {
		s, rec := runSteady(t, n, 1)
		return float64(rec.Report().Sched.GuardVisits) / float64(len(s.Sh.Deliveries()))
	}
	few, many := 500, 2000
	if testing.Short() {
		few, many = 125, 500
	}
	short, long := perDelivery(few), perDelivery(many)
	t.Logf("guard visits per delivery: %.3f at %d arrivals, %.3f at %d", short, few, long, many)
	if short == 0 {
		t.Fatal("no guard visits counted")
	}
	if ratio := long / short; ratio > 1.1 {
		t.Errorf("guard visits per delivery grew %.2fx from %d to %d arrivals (%.2f → %.2f): some guard rescans history",
			ratio, few, many, short, long)
	}
}

// TestOutboxOrderAgainstSeqList covers the one case in which an outbox head
// lies below the delivered frontier of L_g: two clients of one sender
// register m1 then m2, but enqueue m2 then m1 (on the live backend the two
// steps of a multicast are not atomic). The node appends m1 on m2's behalf,
// delivers both and moves the frontier past m1 while m1 still heads the
// outbox; it must pop it, or m3 behind it starves.
func TestOutboxOrderAgainstSeqList(t *testing.T) {
	topo := groups.MustNew(3, groups.NewProcSet(0, 1, 2))
	s := NewSystem(topo, failure.NewPattern(3), Options{}, 5)
	armGuardOracle(t, s)
	m1 := s.Sh.Request(0, 0, nil, 0)
	m2 := s.Sh.Request(0, 0, nil, 0)
	m3 := s.Sh.Request(0, 0, nil, 0)
	s.Nodes[0].Multicast(m2)
	s.Nodes[0].Multicast(m1)
	s.Nodes[0].Multicast(m3)
	if !s.Run() {
		t.Fatal("run did not quiesce")
	}
	for _, v := range s.Check() {
		t.Errorf("violation: %v", v)
	}
	if got := len(s.Sh.Deliveries()); got != 9 {
		t.Fatalf("%d deliveries, want 9: %v", got, s.Sh.Deliveries())
	}
	if _, queued := s.Nodes[0].outboxHead(0); queued {
		t.Errorf("outbox of p0 not drained: %v", s.Nodes[0].outbox[0])
	}
}
