package main

// The performance-shaped claims the paper motivates genuineness with:
//
//	scaling — the §1/§2.3 argument: with k disjoint destination groups a
//	          genuine protocol pays a constant per-group cost while the
//	          broadcast reduction makes every process pay for every message
//	          (cf. [33, 37]);
//	convoy  — the §6.2 convoy effect (cf. [1, 17]): under vanilla Algorithm 1
//	          a message can wait for a chain of messages spanning other
//	          groups, growing delivery latency with the chain's length;
//	delay   — the synchrony knob: Algorithm 1 waits as long as γ takes.
//
// Costs are simulated-currency metrics (per-process protocol steps, shared-
// object messages, virtual-time latency), the right units for an
// asynchronous-model paper; wall-clock throughput of this implementation is
// in bench_test.go, and wall-clock measurements of the live stack are
// cmd/loadsim's job (one row per scenario of the internal/workload catalog).

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/workload"
)

// mustTopo builds the workload package's generated topology of the given
// kind over k groups.
func mustTopo(kind string, k int) *groups.Topology {
	topo, err := workload.TopoSpec{Kind: kind, Groups: k}.Build()
	if err != nil {
		panic(err)
	}
	return topo
}

// scaling prints the genuine-vs-broadcast table for growing k.
func scaling(w io.Writer) {
	header(w, "Genuine vs. broadcast-based multicast — k disjoint groups, 1 msg/group")
	fmt.Fprintf(w, "%4s | %16s %12s | %16s %12s\n",
		"k", "genuine msgs/mc", "steps/proc", "bcast msgs/mc", "steps/proc")
	for _, k := range []int{2, 4, 8, 16, 21} {
		topo := mustTopo(workload.TopoDisjoint, k) // k disjoint groups of size 3
		n := topo.NumProcesses()

		gen := core.NewSystem(topo, failure.NewPattern(n),
			core.Options{ChargeObjects: true, FD: fd.Options{}}, 1)
		for g := 0; g < k; g++ {
			gen.Multicast(groups.Process(3*g), groups.GroupID(g), nil)
		}
		gen.Run()
		genSteps := float64(gen.Eng.TotalSteps()) / float64(n)

		bc := baseline.NewBroadcastSystem(topo, failure.NewPattern(n), 1)
		for g := 0; g < k; g++ {
			bc.Multicast(groups.Process(3*g), groups.GroupID(g), nil)
		}
		bc.Run()
		bcSteps := float64(bc.Eng.TotalSteps()) / float64(n)

		fmt.Fprintf(w, "%4d | %16.1f %12.1f | %16.1f %12.1f\n",
			k,
			float64(gen.Eng.Messages())/float64(k), genSteps,
			float64(bc.Eng.Messages())/float64(k), bcSteps)
	}
	fmt.Fprintln(w, "\nshape: per multicast, the genuine protocol's cost is constant in k (only")
	fmt.Fprintln(w, "the destination group works), while the broadcast reduction's cost and")
	fmt.Fprintln(w, "every process's step count grow linearly with the system size.")
}

// convoy measures the completion latency (all of g0 delivered) of a probe
// message to g0, alone vs. behind a chain of in-flight messages occupying
// the neighbouring intersection logs — the convoy of §6.2: the probe's
// shared member must first finish delivering its neighbour's message, which
// waits on the next link, and so on down the chain.
func convoy(w io.Writer) {
	header(w, "Convoy effect — completion latency of a probe to g0 (rounds = ticks/n)")
	fmt.Fprintf(w, "%6s | %10s | %12s | %7s\n", "ring k", "isolated", "contended", "factor")
	for _, k := range []int{3, 5, 8, 12} {
		// A ring of k size-2 groups: one cyclic family spanning every group,
		// the worst case for stabilisation chains.
		topo := mustTopo(workload.TopoRing, k)
		n := topo.NumProcesses()

		lat := func(contended bool) float64 {
			s := core.NewSystem(topo, failure.NewPattern(n), core.Options{}, 3)
			if contended {
				// The whole ring is already busy when the probe arrives.
				for g := k - 1; g >= 1; g-- {
					s.MulticastAt(2, groups.Process(g), groups.GroupID(g), nil)
				}
			}
			probeAt := failure.Time(4)
			s.MulticastAt(probeAt, 0, 0, nil)
			s.Run()
			// Completion: every member of g0 delivered the probe (the
			// highest-ID message addressed to g0).
			var probe int64 = -1
			var done failure.Time = -1
			for _, d := range s.Sh.Deliveries() {
				if int64(d.M) > probe && s.Sh.Reg.Get(d.M).Dst == 0 {
					probe = int64(d.M)
				}
			}
			for _, d := range s.Sh.Deliveries() {
				if int64(d.M) == probe && d.T > done {
					done = d.T
				}
			}
			if done < 0 {
				return -1
			}
			return float64(done-probeAt) / float64(n)
		}
		iso, con := lat(false), lat(true)
		fmt.Fprintf(w, "%6d | %10.1f | %12.1f | %6.1fx\n", k, iso, con, con/iso)
	}
	fmt.Fprintln(w, "\nshape: alone, the probe completes in a constant number of rounds; with")
	fmt.Fprintln(w, "the ring busy, its stabilisation waits on marks that recurse around the")
	fmt.Fprintln(w, "cyclic family, so the penalty grows with the ring — the §6.2 convoy.")
}

// delaySweep shows the synchrony knob: delivery latency of a message whose
// cyclic family fails grows with the detectors' stabilisation delay —
// Algorithm 1 waits exactly as long as γ takes to report the fault.
func delaySweep(w io.Writer) {
	header(w, "Detector stabilisation delay vs. delivery latency (g1∩g2 crashes)")
	fmt.Fprintf(w, "%8s | %16s\n", "delay", "ticks-to-deliver")
	topo := groups.Figure1()
	for _, delay := range []failure.Time{4, 16, 64, 256} {
		pat := failure.NewPattern(5).WithCrash(1, 10)
		s := core.NewSystem(topo, pat, core.Options{FD: fd.Options{Delay: delay}}, 2)
		m := s.Multicast(0, 0, nil)
		s.Run()
		at, ok := s.Sh.FirstDeliveredAt(m.ID)
		if !ok {
			fmt.Fprintf(w, "%8d | %16s\n", delay, "blocked")
			continue
		}
		fmt.Fprintf(w, "%8d | %16d\n", delay, at)
	}
	fmt.Fprintln(w, "\nshape: latency tracks the stabilisation delay — the algorithm is")
	fmt.Fprintln(w, "indulgent: safety never depends on the detectors being fast.")
}
