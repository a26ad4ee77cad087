package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/logobj"
)

// fenceBackend stands in for a replicated backend with no clock: the Sim
// objects underneath, but a mutator only takes effect when somebody waits
// for it (or the test flushes), and every start and wait of the action in
// progress is logged. From the log the test counts an action's
// wait rounds — maximal runs of Wait with no start in between — which is the
// number of operation latencies the action pays in sequence on a backend
// where operations take time.
type fenceBackend struct {
	Backend
	events  []fenceEvent
	started []*fenceOp
	stable  map[logobj.Datum]int // starts per (m,h) stable tuple
}

type fenceEvent uint8

const (
	fenceStart fenceEvent = iota // a mutator started
	fenceWait
)

func (b *fenceBackend) Log(p groups.Process, g, h groups.GroupID) LogObject {
	return fenceLog{b.Backend.Log(p, g, h), b}
}

// waitRounds counts the wait rounds in the log and clears it.
func (b *fenceBackend) waitRounds() int {
	rounds := 0
	for i, e := range b.events {
		if e == fenceWait && (i == 0 || b.events[i-1] != fenceWait) {
			rounds++
		}
	}
	b.events = b.events[:0]
	return rounds
}

func (b *fenceBackend) start(run func() int) Started {
	b.events = append(b.events, fenceStart)
	op := &fenceOp{b: b, run: run}
	b.started = append(b.started, op)
	return StartedBy(op)
}

// flush applies every operation nobody waited for.
func (b *fenceBackend) flush() {
	for _, op := range b.started {
		op.apply()
	}
	b.started = b.started[:0]
}

type fenceOp struct {
	b    *fenceBackend
	run  func() int
	done bool
	pos  int
}

func (o *fenceOp) apply() int {
	if !o.done {
		o.pos, o.done = o.run(), true
	}
	return o.pos
}

func (o *fenceOp) Wait() int {
	o.b.events = append(o.b.events, fenceWait)
	return o.apply()
}

type fenceLog struct {
	LogObject
	b *fenceBackend
}

func (l fenceLog) Append(ctx *engine.Ctx, origin groups.GroupID, d logobj.Datum) Started {
	if d.Kind == logobj.KindStable {
		l.b.stable[d]++
	}
	return l.b.start(func() int { return l.LogObject.Append(ctx, origin, d).Wait() })
}

func (l fenceLog) BumpAndLock(ctx *engine.Ctx, origin groups.GroupID, d logobj.Datum, k int) Started {
	return l.b.start(func() int { return l.LogObject.BumpAndLock(ctx, origin, d, k).Wait() })
}

// TestActionsStartTogether fences the delivery chain of a process in two
// intersecting groups: each action of Algorithm 1 starts its independent
// log operations together and waits only for what it reads. An edit that
// puts an action's operations back in line — start, wait, start, wait —
// fails here, with no clock involved, before it shows in a benchmark:
//
//	pending    2 rounds: the LOG_{g∩h} appends, then the (m,h,i) tuples
//	commit     2 rounds: the CONS proposal on LOG_g, then the bumps
//	stabilize  0: nothing the action does next reads the (m,h) tuple, and
//	           a rescan before the tuple is applied does not start it again
func TestActionsStartTogether(t *testing.T) {
	// g0 = {0,1}, g1 = {1,2}: p1 sits in both, no cyclic family.
	topo := groups.MustNew(3, groups.NewProcSet(0, 1), groups.NewProcSet(1, 2))
	fb := &fenceBackend{Backend: newSimBackend(topo, Options{}), stable: make(map[logobj.Datum]int)}
	sh := NewSharedWithBackend(topo, failure.NewPattern(3), Options{}, fb)
	n := NewNode(1, sh)
	m := sh.Request(1, 0, nil, 0)
	n.Multicast(m)
	ctx := &engine.Ctx{}

	// step fires one action and returns its wait rounds.
	step := func(want Phase) int {
		t.Helper()
		if !n.Step(ctx) {
			t.Fatalf("no action enabled on the way to %v (phase %v)", want, n.Phase(m.ID))
		}
		if got := n.Phase(m.ID); got != want {
			t.Fatalf("phase %v after the step, want %v", got, want)
		}
		return fb.waitRounds()
	}
	step(PhaseStart) // multicast: LOG_g0.append(m)
	if got := step(PhasePending); got != 2 {
		t.Errorf("pending paid %d wait rounds, want 2 (appends together, then tuples together)", got)
	}
	if got := step(PhaseCommit); got != 2 {
		t.Errorf("commit paid %d wait rounds, want 2 (CONS, then the bumps together)", got)
	}
	if got := step(PhaseCommit); got != 0 { // stabilize: the phase stays
		t.Errorf("stabilize paid %d wait rounds, want 0 (nothing reads the tuple)", got)
	}
	tuple := logobj.StableDatum(m.ID, 1)
	if fb.stable[tuple] != 1 {
		t.Fatalf("stabilize started (m,g1) %d times, want 1", fb.stable[tuple])
	}
	// The tuple is started, not applied: γ(g0) = ∅ demands nothing, so the
	// rescans go on to stable and deliver without it and without a second one.
	if n.groupLog(0).Contains(tuple) {
		t.Fatal("the fence applied an operation nobody waited for")
	}
	step(PhaseStable)
	step(PhaseDeliver)
	if n.Step(ctx) {
		t.Error("an action fired after delivery")
	}
	if fb.stable[tuple] != 1 {
		t.Errorf("(m,g1) started %d times across the rescans, want exactly 1", fb.stable[tuple])
	}
	fb.flush()
	if !n.groupLog(0).Contains(tuple) {
		t.Error("the started tuple never reached LOG_g0")
	}
}
