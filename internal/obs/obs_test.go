package obs_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/obs"
)

// pairTopo is g0 = {0,1}, g1 = {1,2}: one intersection, {1}.
func pairTopo(t *testing.T) *groups.Topology {
	t.Helper()
	topo, err := groups.New(3,
		groups.NewProcSet(0, 1),
		groups.NewProcSet(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// runSeeded drives one instrumented sim run and returns its report.
func runSeeded(t *testing.T, topo *groups.Topology, seed int64, multi bool) obs.RunReport {
	t.Helper()
	rec := obs.NewRecorder(obs.Options{})
	opt := core.Options{Rec: rec, FD: fd.Options{Delay: 8, Seed: seed}}
	sys := core.NewSystem(topo, failure.NewPattern(topo.NumProcesses()), opt, seed)
	sys.MulticastAt(0, 0, 0, nil)
	if multi {
		sys.MulticastAt(2, 2, 1, nil)
	}
	if !sys.Run() {
		t.Fatal("run did not quiesce")
	}
	return sys.Report()
}

// TestSimEventStreamDeterministic pins the determinism contract: two runs
// from the same seed produce bit-identical event streams — the recorder must
// not leak wall time or iteration order into a sim timeline.
func TestSimEventStreamDeterministic(t *testing.T) {
	a := runSeeded(t, pairTopo(t), 42, true)
	b := runSeeded(t, pairTopo(t), 42, true)
	if len(a.Events) == 0 {
		t.Fatal("no events recorded")
	}
	for _, e := range a.Events {
		if e.Wall != 0 {
			t.Fatalf("sim event carries a wall stamp: %+v", e)
		}
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Errorf("same-seed event streams differ: %d vs %d events", len(a.Events), len(b.Events))
	}
	if !reflect.DeepEqual(a.Coordination, b.Coordination) {
		t.Errorf("same-seed coordination counts differ:\n%+v\n%+v", a.Coordination, b.Coordination)
	}
}

// TestCoordinationStaysInIntersection makes Proposition 47 a measured
// quantity: in a contention-free run, every coordination step on LOG_{g∩h}
// is charged inside g∩h — processes outside the intersection count zero.
func TestCoordinationStaysInIntersection(t *testing.T) {
	topo := pairTopo(t)
	rep := runSeeded(t, topo, 9, false) // one message: contention-free
	pc, ok := rep.CoordinationOf(0, 1)
	if !ok {
		t.Fatal("no coordination recorded on the pair log g0∩g1")
	}
	if pc.Ops == 0 {
		t.Fatal("pair log served no operations")
	}
	if pc.Contended != 0 {
		t.Errorf("contention-free run hit the consensus fallback %d times", pc.Contended)
	}
	inter := topo.Intersection(0, 1)
	for p, n := range pc.PerProc {
		if n > 0 && !inter.Has(p) {
			t.Errorf("process %d outside g0∩g1 charged %d coordination steps", p, n)
		}
	}
	// The intersection member itself must have been charged.
	if pc.PerProc[1] == 0 {
		t.Error("intersection member 1 charged zero coordination steps")
	}
}

func TestSummariseQuantiles(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // reversed: Summarise must sort a copy
	}
	s := obs.Summarise(samples)
	want := obs.LatencySummary{Count: 100, Mean: 50.5, P50: 50, P90: 90, P99: 99, P999: 100, Max: 100}
	if s != want {
		t.Errorf("Summarise = %+v, want %+v", s, want)
	}
	if samples[0] != 100 {
		t.Error("Summarise mutated its input")
	}
	if z := obs.Summarise(nil); z != (obs.LatencySummary{}) {
		t.Errorf("Summarise(nil) = %+v, want zero value", z)
	}
}

// TestRecorderOffIsNil pins the off switch: LevelOff yields a nil recorder,
// every method on it is a safe no-op, and what its layers count goes to the
// discard block, never into a report. (The facade half — Report returning
// ErrNotAccounted — is multicast.TestReportObserveOff.)
func TestRecorderOffIsNil(t *testing.T) {
	r := obs.NewRecorder(obs.Options{Level: obs.LevelOff})
	if r != nil {
		t.Fatal("LevelOff recorder is not nil")
	}
	r.Multicast(0, 1, 0, 0)
	r.DeliverAll(0, []msg.ID{1}, 0, 0)
	r.Coordination(obs.Pair{}, 0, false)
	obs.Inc(&r.Paxos().Rounds)
	obs.Inc(&r.Replog().Applies)
	rep := r.Report()
	if rep.Multicasts != 0 || rep.Events != nil || rep.Paxos != nil || rep.Replog != nil {
		t.Errorf("nil recorder report: %+v", rep)
	}
}

// TestDeliverAllSamplesEachMessage: one batch is one call, and it counts and
// samples each of its messages against that message's own multicast time;
// a message never multicast here is counted but not sampled.
func TestDeliverAllSamplesEachMessage(t *testing.T) {
	r := obs.NewRecorder(obs.Options{})
	r.Multicast(0, 1, 0, 10)
	r.Multicast(1, 3, 0, 20)
	r.Multicast(1, 3, 0, 25) // a second stamp of m3 does not move the first
	r.DeliverAll(2, []msg.ID{3, 1, 7}, 0, 40)
	rep := r.Report()
	if rep.Deliveries != 3 || rep.TickLatency.Count != 2 {
		t.Fatalf("deliveries %d, samples %d; want 3 and 2", rep.Deliveries, rep.TickLatency.Count)
	}
	if rep.TickLatency.Max != 30 || rep.TickLatency.Mean != 25 {
		t.Fatalf("tick latency %+v, want samples 20 (m3) and 30 (m1)", rep.TickLatency)
	}
	var got []msg.ID
	for _, e := range rep.Events {
		if e.Kind == obs.EvDeliver {
			got = append(got, e.M)
		}
	}
	if !reflect.DeepEqual(got, []msg.ID{3, 1, 7}) {
		t.Fatalf("deliver events %v, want m3 m1 m7 in order", got)
	}
}
