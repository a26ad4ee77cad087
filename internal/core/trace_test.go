package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/msg"
)

// TestTraceMatchesNodeOrders pins the single evidence path: Shared.Trace
// reads each local order off the run's delivery trace, which is what lets
// both backends build their evidence in one place. On random scenarios under
// every variant, the order it reports for p is exactly the order p's node
// delivered in (an absent key is an empty order), and Shared.Check returns
// the violations check.All finds on a trace built from the nodes — also once
// both traces are tampered with the same way, so the variant-to-checker
// mapping is held on evidence that breaks the specification too.
func TestTraceMatchesNodeOrders(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	variants := []Variant{Vanilla, Strict, Pairwise, StronglyGenuine, Generic}
	for _, v := range variants {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(600 + v)))
			for trial := 0; trial < trials; trial++ {
				sc := genScenario(rng)
				opt := Options{Variant: v, FD: fd.Options{Delay: 8}}
				if v == Generic {
					opt.Conflict = msg.ClassesConflict
				}
				s := NewSystem(sc.topo, sc.pat, opt, sc.seed)
				for i, w := range sc.work {
					class := msg.ClassAll
					if v == Generic && i%3 != 0 {
						class = msg.ClassFree
					}
					s.MulticastClassedAt(w.at, w.src, w.dst, nil, class)
				}
				if !s.Run() {
					t.Fatalf("trial %d: liveness failure: %v pat=%v", trial, sc.topo, sc.pat)
				}
				got, want := s.Sh.Trace(s.Eng.TookSteps), nodeTrace(s)
				for p, n := range s.Nodes {
					if order := got.LocalOrder[groups.Process(p)]; !slices.Equal(order, n.Delivered()) {
						t.Fatalf("trial %d: p%d trace order %v, node order %v", trial, p, order, n.Delivered())
					}
				}
				sameViolations(t, trial, s.Sh.Check(got), checkAll(s.Sh, want))
				for p, order := range want.LocalOrder {
					if len(order) > 1 {
						slices.Reverse(order)
						slices.Reverse(got.LocalOrder[p])
					}
				}
				sameViolations(t, trial, s.Sh.Check(got), checkAll(s.Sh, want))
			}
		})
	}
}

// nodeTrace builds a run's evidence from its nodes' own delivery orders.
func nodeTrace(s *System) *check.Trace {
	local := make(map[groups.Process][]msg.ID, len(s.Nodes))
	for _, n := range s.Nodes {
		local[n.Proc()] = n.Delivered()
	}
	multicast := make(map[msg.ID]failure.Time, s.Sh.Reg.Len())
	first := make(map[msg.ID]failure.Time)
	for _, m := range s.Sh.Reg.All() {
		multicast[m.ID] = s.Sh.RequestedAt(m.ID)
		if at, ok := s.Sh.FirstDeliveredAt(m.ID); ok {
			first[m.ID] = at
		}
	}
	tr := &check.Trace{
		Topo:           s.Sh.Topo,
		Pat:            s.Pat,
		Reg:            s.Sh.Reg,
		LocalOrder:     local,
		Multicast:      multicast,
		FirstDelivered: first,
		TookSteps:      s.Eng.TookSteps,
	}
	if s.Sh.Opt.Variant == Generic {
		tr.Conflicts = s.Sh.Conflicts
	}
	return tr
}

// checkAll runs the checkers of the run's variant over tr.
func checkAll(sh *Shared, tr *check.Trace) []*check.Violation {
	v := sh.Opt.Variant
	return check.All(tr, v == Strict, v == Pairwise, v == Generic)
}

// sameViolations compares two verdicts by the properties they break: each
// checker reports at most one violation, and which witness it names
// depends on map order.
func sameViolations(t *testing.T, trial int, got, want []*check.Violation) {
	t.Helper()
	props := func(vs []*check.Violation) []string {
		var out []string
		for _, v := range vs {
			out = append(out, v.Property)
		}
		slices.Sort(out)
		return out
	}
	if g, w := props(got), props(want); !slices.Equal(g, w) {
		t.Fatalf("trial %d: Shared.Check breaks %v, check.All over the node trace %v", trial, g, w)
	}
}
