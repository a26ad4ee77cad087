package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
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
