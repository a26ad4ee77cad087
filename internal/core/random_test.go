package core

import (
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
)

// scenario is a randomly generated run: topology, crash schedule, workload.
type scenario struct {
	topo *groups.Topology
	pat  *failure.Pattern
	work []workItem
	seed int64
}

type workItem struct {
	at  failure.Time
	src groups.Process
	dst groups.GroupID
}

// genScenario builds a random scenario. To keep the run live it only
// crashes processes that are not the sole member of a group intersection
// serving an alive family... more simply, it bounds crashes and relies on
// γ to cut faulty families.
func genScenario(rng *rand.Rand) scenario {
	n := 4 + rng.Intn(4) // 4..7 processes
	k := 2 + rng.Intn(3) // 2..4 groups
	gs := make([]groups.ProcSet, k)
	for i := range gs {
		var g groups.ProcSet
		size := 2 + rng.Intn(2)
		for g.Count() < size {
			g = g.Add(groups.Process(rng.Intn(n)))
		}
		gs[i] = g
	}
	topo := groups.MustNew(n, gs...)
	pat := failure.NewPattern(n)
	// Crash up to n/3 processes, each keeping at least one alive member per
	// group (so termination obligations remain checkable).
	crashes := rng.Intn(n/3 + 1)
	for c := 0; c < crashes; c++ {
		p := groups.Process(rng.Intn(n))
		ok := true
		trial := pat.WithCrash(p, failure.Time(20+rng.Intn(80)))
		for i := 0; i < k; i++ {
			if trial.Correct().Intersect(gs[i]).Empty() {
				ok = false
				break
			}
		}
		if ok {
			pat = trial
		}
	}
	var work []workItem
	nwork := 3 + rng.Intn(6)
	for w := 0; w < nwork; w++ {
		dst := groups.GroupID(rng.Intn(k))
		members := gs[dst].Members()
		src := members[rng.Intn(len(members))]
		work = append(work, workItem{
			at:  failure.Time(rng.Intn(150)),
			src: src,
			dst: dst,
		})
	}
	return scenario{topo: topo, pat: pat, work: work, seed: rng.Int63()}
}

func runScenario(t *testing.T, sc scenario, opt Options) *System {
	t.Helper()
	s := NewSystem(sc.topo, sc.pat, opt, sc.seed)
	armGuardOracle(t, s)
	for _, w := range sc.work {
		s.MulticastAt(w.at, w.src, w.dst, nil)
	}
	if !s.Run() {
		t.Fatalf("liveness failure: %v pat=%v", sc.topo, sc.pat)
	}
	return s
}

// TestRandomScenariosVanilla soaks Algorithm 1 over random topologies,
// schedules and crash sets, checking the full specification on every run.
func TestRandomScenariosVanilla(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		sc := genScenario(rng)
		s := runScenario(t, sc, Options{FD: fd.Options{Delay: 8}})
		for _, v := range s.Check() {
			t.Fatalf("trial %d: %v (topo=%v pat=%v)", trial, v, sc.topo, sc.pat)
		}
	}
}

// TestRandomScenariosChargedObjects re-runs the soak with the §4.3 cost
// model enabled: accounting must not change behaviour.
func TestRandomScenariosChargedObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		sc := genScenario(rng)
		s := runScenario(t, sc, Options{ChargeObjects: true, FD: fd.Options{Delay: 8}})
		for _, v := range s.Check() {
			t.Fatalf("trial %d: %v (topo=%v pat=%v)", trial, v, sc.topo, sc.pat)
		}
	}
}

// TestRandomScenariosPairwise soaks the §7 pairwise-ordering variant.
func TestRandomScenariosPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		sc := genScenario(rng)
		s := runScenario(t, sc, Options{Variant: Pairwise, FD: fd.Options{Delay: 8}})
		for _, v := range s.Check() {
			t.Fatalf("trial %d: %v (topo=%v pat=%v)", trial, v, sc.topo, sc.pat)
		}
	}
}

// TestRandomScenariosStrict soaks the §6.1 strict variant, which must
// additionally satisfy real-time order.
func TestRandomScenariosStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		sc := genScenario(rng)
		s := runScenario(t, sc, Options{Variant: Strict, FD: fd.Options{Delay: 8}})
		for _, v := range s.Check() {
			t.Fatalf("trial %d: %v (topo=%v pat=%v)", trial, v, sc.topo, sc.pat)
		}
	}
}

// TestDeterministicReplay: the same scenario and seed produce the same
// delivery trace.
func TestDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	sc := genScenario(rng)
	run := func() []Delivery {
		s := runScenario(t, sc, Options{})
		return s.Sh.Deliveries()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("traces diverge in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
