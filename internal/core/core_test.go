package core

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
)

// runAndCheck drives the system to quiescence and fails on any violation.
func runAndCheck(t *testing.T, s *System) {
	t.Helper()
	if !s.Run() {
		t.Fatalf("run did not quiesce (liveness failure)")
	}
	for _, v := range s.Check() {
		t.Errorf("violation: %v", v)
	}
}

func TestSingleGroupTotalOrder(t *testing.T) {
	topo := groups.MustNew(3, groups.NewProcSet(0, 1, 2))
	s := NewSystem(topo, failure.NewPattern(3), Options{}, 1)
	for i := 0; i < 5; i++ {
		s.Multicast(groups.Process(i%3), 0, []byte{byte(i)})
	}
	runAndCheck(t, s)
	// All three processes deliver all five messages in the same order.
	ref := s.DeliveredAt(0)
	if len(ref) != 5 {
		t.Fatalf("p0 delivered %d messages, want 5", len(ref))
	}
	for p := 1; p < 3; p++ {
		got := s.DeliveredAt(groups.Process(p))
		if len(got) != len(ref) {
			t.Fatalf("p%d delivered %d, want %d", p, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("delivery orders diverge at %d: %v vs %v", i, got, ref)
			}
		}
	}
}

func TestDisjointGroupsRunIndependently(t *testing.T) {
	topo := groups.MustNew(6,
		groups.NewProcSet(0, 1),
		groups.NewProcSet(2, 3),
		groups.NewProcSet(4, 5),
	)
	s := NewSystem(topo, failure.NewPattern(6), Options{}, 2)
	s.Multicast(0, 0, nil)
	s.Multicast(2, 1, nil)
	s.Multicast(4, 2, nil)
	runAndCheck(t, s)
	for p := 0; p < 6; p++ {
		if got := len(s.DeliveredAt(groups.Process(p))); got != 1 {
			t.Fatalf("p%d delivered %d messages, want 1", p, got)
		}
	}
}

func TestIntersectingPairOrdering(t *testing.T) {
	// Two groups sharing one process: deliveries at the shared process give
	// the pairwise order.
	topo := groups.MustNew(3,
		groups.NewProcSet(0, 1),
		groups.NewProcSet(1, 2),
	)
	for seed := int64(0); seed < 20; seed++ {
		s := NewSystem(topo, failure.NewPattern(3), Options{}, seed)
		s.Multicast(0, 0, nil)
		s.Multicast(1, 1, nil)
		s.Multicast(1, 0, nil)
		s.Multicast(2, 1, nil)
		runAndCheck(t, s)
		if got := len(s.DeliveredAt(1)); got != 4 {
			t.Fatalf("seed %d: shared p1 delivered %d, want 4", seed, got)
		}
	}
}

func TestFigure1NoFailures(t *testing.T) {
	topo := groups.Figure1()
	for seed := int64(0); seed < 20; seed++ {
		s := NewSystem(topo, failure.NewPattern(5), Options{}, seed)
		// One message per group, from varied senders.
		s.Multicast(0, 0, nil) // p1 → g1
		s.Multicast(1, 1, nil) // p2 → g2
		s.Multicast(2, 2, nil) // p3 → g3
		s.Multicast(4, 3, nil) // p5 → g4
		runAndCheck(t, s)
	}
}

func TestFigure1GroupSequentialStream(t *testing.T) {
	topo := groups.Figure1()
	s := NewSystem(topo, failure.NewPattern(5), Options{}, 3)
	// Several messages per group; the Prop-1 gate serialises per group.
	for round := 0; round < 3; round++ {
		s.Multicast(0, 0, []byte(fmt.Sprintf("g1-%d", round)))
		s.Multicast(1, 1, []byte(fmt.Sprintf("g2-%d", round)))
		s.Multicast(3, 2, []byte(fmt.Sprintf("g3-%d", round)))
		s.Multicast(0, 3, []byte(fmt.Sprintf("g4-%d", round)))
	}
	runAndCheck(t, s)
	// p1 ∈ g1,g3,g4 delivers 9 messages.
	if got := len(s.DeliveredAt(0)); got != 9 {
		t.Fatalf("p1 delivered %d, want 9", got)
	}
}

func TestMinimalityUntouchedProcessIdle(t *testing.T) {
	// Figure 1: a message to g1 = {p1,p2} must not make p5 take steps.
	topo := groups.Figure1()
	s := NewSystem(topo, failure.NewPattern(5), Options{ChargeObjects: true}, 4)
	s.Multicast(0, 0, nil)
	runAndCheck(t, s)
	for _, p := range []groups.Process{2, 3, 4} { // p3, p4, p5 ∉ g1
		if s.Eng.TookSteps(p) {
			t.Errorf("p%d took steps though only g1 was addressed", p)
		}
	}
}

func TestCrashOfSenderAfterRequest(t *testing.T) {
	// The sender crashes right after its message reaches L_g; the group
	// still delivers it via helping if anyone delivers or the sender is
	// "correct enough" — here another group member's request forces help.
	topo := groups.MustNew(3, groups.NewProcSet(0, 1, 2))
	pat := failure.NewPattern(3).WithCrash(0, 1)
	s := NewSystem(topo, pat, Options{}, 5)
	s.Multicast(0, 0, nil) // enters L_g; p0 crashes before appending
	s.Multicast(1, 0, nil) // p1's request helps m1 into LOG_g
	if !s.Run() {
		t.Fatalf("run did not quiesce")
	}
	for _, v := range s.Check() {
		t.Errorf("violation: %v", v)
	}
	// Both messages delivered at the correct processes.
	for _, p := range []groups.Process{1, 2} {
		if got := len(s.DeliveredAt(p)); got != 2 {
			t.Fatalf("p%d delivered %d, want 2", p, got)
		}
	}
}

func TestFigure1CrashP2CyclicFamilyFaulty(t *testing.T) {
	// p2 = g1∩g2 crashes mid-run: families f and f'' become faulty, γ drops
	// them, and the remaining correct processes keep delivering.
	topo := groups.Figure1()
	for seed := int64(0); seed < 10; seed++ {
		pat := failure.NewPattern(5).WithCrash(1, 40)
		s := NewSystem(topo, pat, Options{FD: fdOpts(8)}, seed)
		s.Multicast(0, 0, nil)
		s.Multicast(2, 1, nil)
		s.Multicast(2, 2, nil)
		s.Multicast(4, 3, nil)
		s.MulticastAt(100, 0, 0, nil)
		s.MulticastAt(120, 2, 2, nil)
		runAndCheck(t, s)
	}
}

func TestFigure1CrashP1(t *testing.T) {
	// p1 sits in every cyclic family; its crash makes all of F faulty.
	topo := groups.Figure1()
	for seed := int64(0); seed < 10; seed++ {
		pat := failure.NewPattern(5).WithCrash(0, 30)
		s := NewSystem(topo, pat, Options{FD: fdOpts(6)}, seed)
		s.Multicast(1, 0, nil) // p2 → g1
		s.Multicast(2, 1, nil) // p3 → g2
		s.Multicast(3, 2, nil) // p4 → g3
		s.Multicast(3, 3, nil) // p4 → g4
		s.MulticastAt(90, 2, 1, nil)
		runAndCheck(t, s)
	}
}

func TestWholeGroupCrash(t *testing.T) {
	// g1 = {p0,p1} crashes entirely; other groups continue.
	topo := groups.MustNew(5,
		groups.NewProcSet(0, 1),
		groups.NewProcSet(2, 3),
		groups.NewProcSet(3, 4),
	)
	pat := failure.NewPattern(5).WithCrashes(groups.NewProcSet(0, 1), 20)
	s := NewSystem(topo, pat, Options{FD: fdOpts(5)}, 6)
	s.Multicast(0, 0, nil)
	s.Multicast(2, 1, nil)
	s.Multicast(4, 2, nil)
	s.MulticastAt(80, 3, 1, nil)
	if !s.Run() {
		t.Fatalf("run did not quiesce")
	}
	for _, v := range s.Check() {
		t.Errorf("violation: %v", v)
	}
}

func fdOpts(delay failure.Time) fd.Options {
	return fd.Options{Delay: delay}
}

// TestOutstandingIgnoresDuplicates: the count lowers once per pair, at its
// first delivery, and a delivery the frozen trace drops does not lower it.
func TestOutstandingIgnoresDuplicates(t *testing.T) {
	topo := groups.MustNew(3, groups.NewProcSet(0, 1, 2))
	sh := NewShared(topo, failure.NewPattern(3), Options{})
	sh.Watch(groups.NewProcSet(0, 1))
	a := sh.Request(0, 0, nil, 0)
	b := sh.Request(1, 0, nil, 0)
	steps := []struct {
		p    groups.Process
		m    msg.ID
		want int
	}{
		{0, a.ID, 3}, {0, a.ID, 3}, {2, a.ID, 3}, {1, a.ID, 2}, {1, b.ID, 1},
	}
	for _, s := range steps {
		sh.RecordDeliveries(s.p, []msg.ID{s.m}, 1)
		if got := sh.Outstanding(); got != s.want {
			t.Fatalf("after p%d delivers m%d: %d outstanding, want %d", s.p, s.m, got, s.want)
		}
	}
	sh.Freeze()
	sh.RecordDeliveries(0, []msg.ID{b.ID}, 2)
	if got := sh.Outstanding(); got != 1 {
		t.Fatalf("a delivery after Freeze lowered the count to %d", got)
	}
}

// TestSimLogFirstMessageAppendWins: the sim's shared objects keep the batch
// rule of the log they are built on. Two appends of one message as batch
// heads with different extents leave one datum, at the first position,
// with the first extent, and the guard reads find it.
func TestSimLogFirstMessageAppendWins(t *testing.T) {
	topo := groups.MustNew(3, groups.NewProcSet(0, 1, 2))
	sh := NewShared(topo, failure.NewPattern(3), Options{})
	ms := []*msg.Message{sh.Request(0, 0, nil, 0), sh.Request(1, 0, nil, 0), sh.Request(2, 0, nil, 0)}
	ctx := &engine.Ctx{}
	first := logobj.Datum{Kind: logobj.KindMsg, Msg: ms[0].ID, I: int(ms[2].ID)}
	pos := sh.be.Log(0, 0, 0).Append(ctx, 0, first).Wait()
	second := logobj.Datum{Kind: logobj.KindMsg, Msg: ms[0].ID, I: int(ms[1].ID)}
	if got := sh.be.Log(1, 0, 0).Append(ctx, 0, second).Wait(); got != pos {
		t.Fatalf("second append of m%d at %d, the first sits at %d", ms[0].ID, got, pos)
	}
	l := sh.be.Log(2, 0, 0)
	if got := l.Batch(ms[0].ID); got != ms[2].ID {
		t.Errorf("Batch(m%d) = m%d, want the first append's m%d", ms[0].ID, got, ms[2].ID)
	}
	if !l.Contains(logobj.MsgDatum(ms[0].ID)) || len(sh.GroupLog(0).Inner().Items()) != 1 {
		t.Errorf("LOG_g0 = %v, want m%d alone", sh.GroupLog(0).Inner(), ms[0].ID)
	}
	if got := sh.extent(0, ms[0].ID, l.Batch(ms[0].ID)); len(got) != 2 || got[0] != ms[1].ID || got[1] != ms[2].ID {
		t.Errorf("extent of m%d = %v, want [m%d m%d]", ms[0].ID, got, ms[1].ID, ms[2].ID)
	}
}
