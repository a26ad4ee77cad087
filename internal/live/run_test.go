package live

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/failure"
	"repro/internal/workload"
)

// envScenario is the catalog scenario of that name.
func envScenario(t *testing.T, name string) workload.Scenario {
	t.Helper()
	scs, err := workload.Select(workload.Catalog(), name)
	if err != nil {
		t.Fatal(err)
	}
	return scs[0]
}

// TestEnvLiftsFaults checks the environment of a chaos row injects faults
// until liftFaults and none after it.
func TestEnvLiftsFaults(t *testing.T) {
	e, err := openEnv(envScenario(t, "burst-chaos"), Env{Transport: "mem"}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if e.chaos == nil {
		t.Fatal("chaos_seed did not wrap the transport")
	}
	go func() { // drain p1's inbox so sends never block
		for range e.nw.Inbox(1) {
		}
	}()
	injections := func() uint64 {
		st := e.chaos.Stats()
		return st.Duplicated + st.Delayed + st.DroppedRandom
	}
	for i := 0; i < 4000; i++ {
		e.nw.Send(0, 1, 0, nil)
	}
	before := injections()
	if before == 0 {
		t.Fatal("4000 packets under the mild fault mix saw no injection")
	}
	e.liftFaults()
	for i := 0; i < 4000; i++ {
		e.nw.Send(0, 1, 0, nil)
	}
	if after := injections(); after != before {
		t.Fatalf("faults still injected after liftFaults: %d -> %d", before, after)
	}
	plain, err := openEnv(envScenario(t, "burst-n3"), Env{Transport: "mem"}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	if plain.chaos != nil || plain.storage != nil {
		t.Fatal("a plain scenario got a nemesis or file WALs")
	}
	plain.liftFaults() // no nemesis: must be a no-op, not a nil dereference
}

// TestPlanReachesNemesis checks a seeded plan reaches chaos.Nemesis as the
// schedule chaos.NewPlan builds from the same seed (what `nemesis -print`
// shows is what runs), over a fabric faulted by that seed and by nothing
// else, and that the plan's seed also names the chain's stream.
func TestPlanReachesNemesis(t *testing.T) {
	const seed, n, d = 7, 7, 300 * time.Millisecond
	sc, env, err := ChainUnderPlan(chaos.NewPlan(seed, n, d), 1)
	if err != nil {
		t.Fatal(err)
	}
	if env.Seed != seed {
		t.Fatalf("chain stream seeded with %d, plan with %d", env.Seed, seed)
	}
	e, err := openEnv(sc, env, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if e.nemesis == nil || e.nemesis.C != e.chaos || e.nw != e.chaos {
		t.Fatal("the plan's nemesis does not drive the run's fabric")
	}
	if want := chaos.NewPlan(seed, n, d); !reflect.DeepEqual(e.nemesis.Plan, want) {
		t.Fatalf("nemesis replays\n%s\nwant\n%s", e.nemesis.Plan, want)
	}
	// The plan's own faults, and not the chaos_seed mix: the fabric starts
	// clean, only the nemesis's events change it, and the delivery count
	// that lifts a chaos_seed's mix leaves a plan's faults alone.
	go func() { // drain p1's inbox so sends never block
		for range e.nw.Inbox(1) {
		}
	}()
	for i := 0; i < 4000; i++ {
		e.nw.Send(0, 1, 0, nil)
	}
	if got := e.chaos.Stats(); got.Injections() != 0 {
		t.Fatalf("a planned fabric injected before its plan ran: %+v", got)
	}
	e.chaos.Apply(chaos.Event{Kind: chaos.EvFaults, F: chaos.Faults{Drop: 1}})
	e.liftFaults()
	e.nw.Send(0, 1, 0, nil)
	if got := e.chaos.Stats(); got.DroppedRandom != 1 {
		t.Fatalf("liftFaults cleared the plan's faults: %+v", got)
	}
}

// TestCrashedMembersNeverSend runs a chain whose every group holds a member
// that crashes mid-stream: no arrival is submitted from a process the
// schedule crashes, the run delivers everything at every correct
// destination (a multicast submitted at a crashed process would never be
// delivered, and Run would fail on it), and the row still certifies the
// scenario's own stream.
func TestCrashedMembersNeverSend(t *testing.T) {
	sc := workload.Scenario{
		Name:     "chain-crashes",
		Topo:     workload.TopoSpec{Kind: workload.TopoChain, Groups: 3},
		Arrivals: workload.ArrivalsFixed,
		Rate:     100, Count: 40,
		ConflictRate: 1,
	}
	pat := failure.NewPattern(7).WithCrash(1, 120).WithCrash(3, 180).WithCrash(5, 240)

	gen, err := workload.NewGen(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; ; i++ {
		a, ok := gen.Next()
		if !ok {
			break
		}
		p := sender(gen.Topology(), pat.Correct(), a, i)
		if !pat.IsCorrect(p) || !gen.Topology().Group(a.Dst).Has(p) {
			t.Fatalf("arrival %d (p%d -> g%d) sent from p%d", i, a.Src, a.Dst, p)
		}
		if p != a.Src {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the stream drew no crashing sender; the test exercises nothing")
	}

	row, err := Run(sc, Env{Seed: 1, Transport: "mem", Crashes: pat})
	if err != nil {
		t.Fatal(err)
	}
	if row.Multicasts != int64(sc.Count) || row.Deliveries < 2*row.Multicasts {
		t.Fatalf("%d multicasts, %d deliveries: want %d, each at its two correct members at least",
			row.Multicasts, row.Deliveries, sc.Count)
	}
	if want, _ := workload.Digest(sc, 1); row.StreamDigest != want {
		t.Fatalf("stream digest %s, want the scenario's %s", row.StreamDigest, want)
	}
	all := failure.NewPattern(7).WithCrash(0, 10).WithCrash(1, 10).WithCrash(2, 10)
	if _, err := Run(sc, Env{Seed: 1, Transport: "mem", Crashes: all}); err == nil {
		t.Fatal("a schedule that crashes all of g0 was run")
	}
}
