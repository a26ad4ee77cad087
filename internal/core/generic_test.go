package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/obs"
)

// TestRandomScenariosGeneric soaks the generic variant over random
// topologies, crash sets and schedules with a mixed class assignment —
// roughly a third of the load in small keyed classes, the rest commuting
// with everything — checking the conflict-aware specification every run.
func TestRandomScenariosGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		sc := genScenario(rng)
		s := NewSystem(sc.topo, sc.pat, Options{
			Variant:  Generic,
			Conflict: msg.ClassesConflict,
			FD:       fd.Options{Delay: 8},
		}, sc.seed)
		armGuardOracle(t, s)
		for i, w := range sc.work {
			class := msg.ClassFree
			if i%3 == 0 {
				class = msg.Class(1 + i%2)
			}
			s.MulticastClassedAt(w.at, w.src, w.dst, nil, class)
		}
		if !s.Run() {
			t.Fatalf("trial %d: liveness failure: %v pat=%v", trial, sc.topo, sc.pat)
		}
		for _, v := range s.Check() {
			t.Fatalf("trial %d: %v (topo=%v pat=%v)", trial, v, sc.topo, sc.pat)
		}
	}
}

// TestGenericNilRelationBitForBitVanilla pins the all-conflict regression
// at the protocol level: the generic variant with a nil relation (every
// pair conflicts) must produce the exact delivery sequence — same
// messages, same processes, same virtual times, same order — as the
// vanilla run of the same seeded scenario.
func TestGenericNilRelationBitForBitVanilla(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		sc := genScenario(rng)
		van := runScenario(t, sc, Options{FD: fd.Options{Delay: 8}})
		gen := runScenario(t, sc, Options{Variant: Generic, FD: fd.Options{Delay: 8}})
		if !reflect.DeepEqual(van.Sh.Deliveries(), gen.Sh.Deliveries()) {
			t.Fatalf("trial %d: generic(nil relation) diverged from vanilla:\nvanilla %v\ngeneric %v\n(topo=%v pat=%v)",
				trial, van.Sh.Deliveries(), gen.Sh.Deliveries(), sc.topo, sc.pat)
		}
	}
}

// TestGenericFreeOnlySkipsAllCoordination: a workload that is entirely
// ClassFree on overlapping groups must deliver every message through the
// fast path — the recorder's skipped-coordination count equals the
// delivery count — and still satisfy the generic specification.
func TestGenericFreeOnlySkipsAllCoordination(t *testing.T) {
	topo := groups.MustNew(3,
		groups.NewProcSet(0, 1),
		groups.NewProcSet(1, 2),
	)
	rec := obs.NewRecorder(obs.Options{})
	s := NewSystem(topo, failure.NewPattern(3), Options{
		Variant:  Generic,
		Conflict: msg.ClassesConflict,
		Rec:      rec,
	}, 7)
	s.MulticastClassedAt(0, 0, 0, nil, msg.ClassFree)
	s.MulticastClassedAt(2, 1, 1, nil, msg.ClassFree)
	s.MulticastClassedAt(5, 1, 0, nil, msg.ClassFree)
	s.MulticastClassedAt(9, 2, 1, nil, msg.ClassFree)
	if !s.Run() {
		t.Fatal("run did not quiesce")
	}
	for _, v := range s.Check() {
		t.Errorf("violation: %v", v)
	}
	rep := s.Report()
	if rep.Conflict == nil {
		t.Fatal("free-only generic run produced no conflict report")
	}
	if got, want := rep.Conflict.FastDeliveries, int64(len(s.Sh.Deliveries())); got != want {
		t.Errorf("fast deliveries %d, want every delivery (%d) to skip coordination", got, want)
	}
}

// TestHelpRespectsThePredecessorsGate: the Proposition-1 gate keeps two
// conflicting requests of one group from being in flight together, and
// helping must not be a way round it. a and b conflict (one key), c commutes
// with everything; a is in flight, b's sender is slow, and c's sender walks
// L_g = a, b, c. It passes over a (in flight, commutes with c) and reaches b,
// which is not in the log: appending b on its sender's behalf now would put b
// in flight beside a — the live Generic burst wedged on exactly this, an
// intersection process holding the two in opposite orders in two of its logs.
// c needs neither, so c goes in and b waits for a request that needs it.
func TestHelpRespectsThePredecessorsGate(t *testing.T) {
	topo := groups.MustNew(3, groups.NewProcSet(0, 1, 2))
	s := NewSystem(topo, failure.NewPattern(3), Options{Variant: Generic, Conflict: msg.ClassesConflict}, 1)
	a := s.Sh.RequestClassed(0, 0, nil, msg.Class(1), 0)
	b := s.Sh.RequestClassed(1, 0, nil, msg.Class(1), 0)
	c := s.Sh.RequestClassed(2, 0, nil, msg.ClassFree, 0)
	ctx := &engine.Ctx{}
	s.Nodes[0].Multicast(a)
	if !s.Nodes[0].Step(ctx) { // p0 appends a: in flight
		t.Fatal("p0 did not multicast a")
	}
	s.Nodes[2].Multicast(c)
	lg := s.Sh.Log(0, 0).Inner()
	for s.Nodes[2].Step(ctx) && !lg.Contains(logobj.MsgDatum(c.ID)) {
	}
	if lg.Contains(logobj.MsgDatum(b.ID)) {
		t.Fatal("p2 helped b into LOG_g0 while a, which b conflicts with, is undelivered at p2")
	}
	if !lg.Contains(logobj.MsgDatum(c.ID)) {
		t.Fatal("c, which commutes with both, did not get past the gate")
	}
	// Liveness is untouched where helping matters: b's sender never shows up,
	// d conflicts with b, so d's sender helps b in once a is delivered there.
	d := s.Sh.RequestClassed(2, 0, nil, msg.Class(1), 0)
	s.Nodes[2].Multicast(d)
	if !s.Run() {
		t.Fatal("run did not quiesce")
	}
	for _, v := range s.Check() {
		t.Errorf("violation: %v", v)
	}
	if got := len(s.Sh.Deliveries()); got != 12 {
		t.Errorf("%d deliveries, want 12 (a, b, c, d at three processes)", got)
	}
}

// TestConflictsWithUnregisteredMessage: on the live stack a pair log can name
// a message this daemon has not announced yet. The relation cannot be
// evaluated on it, so the pair conflicts — the guard that asks waits for the
// announce — instead of the registry panicking.
func TestConflictsWithUnregisteredMessage(t *testing.T) {
	topo := groups.MustNew(2, groups.NewProcSet(0, 1))
	sh := NewShared(topo, failure.NewPattern(2), Options{Variant: Generic, Conflict: msg.ClassesConflict})
	m := sh.RequestClassed(0, 0, nil, msg.Class(1), 0)
	unknown := m.ID + 1
	if !sh.Conflicts(m.ID, unknown) || !sh.Conflicts(unknown, m.ID) {
		t.Error("a registered message commutes with one this registry does not know")
	}
}
