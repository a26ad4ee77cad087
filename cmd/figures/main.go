// Command figures regenerates the paper's figures and tables as textual
// artifacts computed by the library:
//
//	figure1  — the running example's intersection graphs and cyclic families
//	table1   — the weakest-failure-detector landscape, with the measured
//	           outcome of each row's scenario
//	figure3  — Algorithm 3's γ emulation on the Figure 1 topology
//	figure45 — Algorithm 5's traversal and decision gadget
//
// and the performance-shaped claims the paper motivates genuineness with
// (tables.go), in simulated currency:
//
//	scaling  — genuine vs. broadcast-based multicast over k disjoint groups
//	convoy   — the §6.2 convoy effect on a ring
//	delay    — detector stabilisation delay vs. delivery latency
//
// Run with no argument to print everything; output is deterministic. (The
// base invariants, Claims 2-15, are checked in internal/core's
// invariants_test.go, not printed here.)
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
)

// modes is every artifact the command prints, in print order.
var modes = []struct {
	name string
	run  func(io.Writer)
}{
	{"figure1", figure1},
	{"table1", table1},
	{"figure3", figure3},
	{"figure45", figure45},
	{"scaling", scaling},
	{"convoy", convoy},
	{"delay", delaySweep},
}

func main() {
	which := ""
	if len(os.Args) > 1 {
		which = os.Args[1]
	}
	if !run(os.Stdout, which) {
		fmt.Fprintf(os.Stderr, "figures: unknown mode %q (want one of: %s)\n", which, strings.Join(modeNames(), ", "))
		os.Exit(2)
	}
}

// run prints the named artifact to w, or all of them for "". It reports
// whether the name was known.
func run(w io.Writer, which string) bool {
	known := which == ""
	for _, m := range modes {
		if which == "" || which == m.name {
			m.run(w)
			known = true
		}
	}
	return known
}

func modeNames() []string {
	var names []string
	for _, m := range modes {
		names = append(names, m.name)
	}
	return names
}

func header(w io.Writer, s string) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("=", 76))
	fmt.Fprintln(w, s)
	fmt.Fprintln(w, strings.Repeat("=", 76))
}

// figure1 recomputes every fact the paper states about Figure 1.
func figure1(w io.Writer) {
	header(w, "Figure 1 — groups g1..g4 and the cyclic families")
	topo := groups.Figure1()
	fmt.Fprintln(w, "groups:")
	for g := 0; g < topo.NumGroups(); g++ {
		fmt.Fprintf(w, "  g%d = %v\n", g+1, topo.Group(groups.GroupID(g)))
	}
	fmt.Fprintln(w, "cyclic families (subsets of G with hamiltonian intersection graph):")
	for _, f := range topo.Families() {
		var names []string
		for _, g := range f.Groups.Members() {
			names = append(names, fmt.Sprintf("g%d", g+1))
		}
		fmt.Fprintf(w, "  {%s}  closed paths: %d\n", strings.Join(names, ","), len(f.CPaths))
	}
	fmt.Fprintf(w, "F(g2) has %d families (paper: {f, f''})\n", len(topo.FamiliesOf(1)))
	fmt.Fprintf(w, "F(p1) has %d families (paper: all of F)\n", len(topo.FamiliesOfProcess(0)))
	fmt.Fprintf(w, "F(p5) has %d families (paper: none)\n", len(topo.FamiliesOfProcess(4)))
	crashed := groups.NewProcSet(1)
	for _, f := range topo.Families() {
		fmt.Fprintf(w, "  faulty(%v) with p2 crashed: %v\n", f.Groups, topo.FamilyFaulty(f, crashed))
	}
}

// table1 replays each row's scenario and reports the measured outcome.
func table1(w io.Writer) {
	header(w, "Table 1 — the weakest failure detector for atomic multicast")
	fmt.Fprintf(w, "%-34s %-26s %s\n", "row", "detector", "measured")

	// Non-genuine / global: Ω ∧ Σ (atomic broadcast baseline).
	topo := groups.Figure1()
	bs := baseline.NewBroadcastSystem(topo, failure.NewPattern(5), 1)
	bs.Multicast(0, 0, nil)
	bs.Run()
	busy := 0
	for p := 0; p < 5; p++ {
		if bs.Eng.TookSteps(groups.Process(p)) {
			busy++
		}
	}
	fmt.Fprintf(w, "%-34s %-26s delivers; %d/5 processes busy (not genuine)\n",
		"non-genuine, global order", "Ω ∧ Σ", busy)

	// Genuine, global order: μ.
	pat := failure.NewPattern(5).WithCrash(1, 35)
	s := core.NewSystem(topo, pat, core.Options{FD: fd.Options{Delay: 8}}, 2)
	s.Multicast(0, 0, nil)
	s.Multicast(2, 1, nil)
	s.Multicast(3, 2, nil)
	s.Multicast(4, 3, nil)
	ok := s.Run() && len(s.Check()) == 0
	fmt.Fprintf(w, "%-34s %-26s solves with p2 faulty: %v\n",
		"genuine, global order (§4, §5)", "μ = ∧Σ_{g∩h} ∧ ∧Ω_g ∧ γ", ok)

	// Strict: μ ∧ 1^{g∩h}.
	s2 := core.NewSystem(topo, pat, core.Options{Variant: core.Strict, FD: fd.Options{Delay: 8}}, 3)
	s2.Multicast(0, 0, nil)
	s2.Multicast(2, 2, nil)
	ok2 := s2.Run() && len(s2.Check()) == 0
	fmt.Fprintf(w, "%-34s %-26s real-time order holds: %v\n",
		"strict order (§6.1)", "μ ∧ ∧1^{g∩h}", ok2)

	// Pairwise: no γ, acyclic topology.
	chain := groups.MustNew(5, groups.NewProcSet(0, 1), groups.NewProcSet(1, 2, 3), groups.NewProcSet(3, 4))
	s3 := core.NewSystem(chain, failure.NewPattern(5), core.Options{Variant: core.Pairwise}, 4)
	s3.Multicast(0, 0, nil)
	s3.Multicast(2, 1, nil)
	s3.Multicast(4, 2, nil)
	ok3 := s3.Run() && len(s3.Check()) == 0
	fmt.Fprintf(w, "%-34s %-26s solves without γ: %v\n",
		"pairwise order (§7)", "∧Σ_{g∩h} ∧ ∧Ω_g", ok3)

	// Strongly genuine, F = ∅: μ ∧ ∧Ω_{g∩h}.
	acyc := groups.MustNew(5, groups.NewProcSet(0, 1, 2), groups.NewProcSet(2, 3, 4))
	s4 := core.NewSystem(acyc, failure.NewPattern(5), core.Options{Variant: core.StronglyGenuine}, 5)
	s4.Multicast(0, 0, nil)
	ok4 := s4.Run() && len(s4.Check()) == 0
	fmt.Fprintf(w, "%-34s %-26s group parallelism: %v\n",
		"strongly genuine, F=∅ (§6.2)", "μ ∧ ∧Ω_{g∩h}", ok4)

	fmt.Fprintln(w, "\n(∉ U2 row: see TestTable1_U2Insufficient — Σ_{p,q} is not 2-unreliable)")
}

// figure3 runs the γ emulation (Theorem 50 / Figure 3).
func figure3(w io.Writer) {
	header(w, "Figure 3 — Algorithm 3: emulating γ from a solution A")
	topo := groups.Figure1()
	pat := failure.NewPattern(5).WithCrash(1, 10)
	em := extract.NewGammaEmulation(topo, pat, core.Options{FD: fd.Options{Delay: 6}}, 6, nil)
	fmt.Fprintln(w, "pattern:", pat)
	fmt.Fprintln(w, "families still output at p1 after stabilisation:")
	for _, f := range em.Families(0, em.Horizon()+50) {
		fmt.Fprintf(w, "  %v\n", f.Groups)
	}
	fmt.Fprintf(w, "γ(g1) derived from the emulation: %v\n", em.ActiveEdges(0, 0, em.Horizon()+50))
}

// figure45 runs the Ω extraction's traversal (Figure 4) and gadget search
// (Figure 5).
func figure45(w io.Writer) {
	header(w, "Figures 4 & 5 — Algorithm 5: the simulation forest of Appendix B")
	topo := groups.MustNew(4, groups.NewProcSet(0, 1, 2), groups.NewProcSet(1, 2, 3))
	for _, pat := range []*failure.Pattern{
		failure.NewPattern(4),
		failure.NewPattern(4).WithCrash(2, 0),
	} {
		e := extract.NewOmegaExtraction(topo, pat, 0, 1, fd.Options{}, 28)
		fmt.Fprintf(w, "\npattern %v\n", pat)
		fmt.Fprintln(w, "  root valencies along the chain J_0..J_v (g-valent, h-valent):")
		for i, tags := range e.RootTags() {
			fmt.Fprintf(w, "    J_%d: (%v, %v)\n", i, tags[0], tags[1])
		}
		idx, univalent, conn, found := e.CriticalIndex()
		fmt.Fprintf(w, "  critical index %d, univalent=%v, connecting=p%d, found=%v\n",
			idx, univalent, conn, found)
		if found && !univalent {
			if q, kind, ok := e.GadgetKindAt(idx); ok {
				fmt.Fprintf(w, "  decision gadget (%v) found; deciding process p%d\n", kind, q)
			}
		}
		if l, ok := e.Extract(1); ok {
			fmt.Fprintf(w, "  extracted Ω_{g∩h} leader: p%d\n", l)
		}
	}
}
