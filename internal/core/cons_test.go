package core

import (
	"math/rand"
	"testing"

	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/obs"
)

// TestConsDecidedInGroupLog: CONS_{m,f} is the first (m, f, k) proposal in
// LOG_{dst(m)} on the Sim backend too. After seeded runs, every process that
// delivered m committed the head of m's batch, and LOG_{dst(m)} holds the
// decision of that process's family for the head, equal to the value its
// Decide event recorded.
func TestConsDecidedInGroupLog(t *testing.T) {
	for _, v := range []Variant{Vanilla, Pairwise} {
		rng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 10; trial++ {
			sc := genScenario(rng)
			rec := obs.NewRecorder(obs.Options{})
			s := runScenario(t, sc, Options{Variant: v, FD: fd.Options{Delay: 8}, Rec: rec})
			type key struct {
				p groups.Process
				m msg.ID
			}
			decided := map[key]int{}
			for _, e := range rec.Report().Events {
				if e.Kind == obs.EvDecide {
					decided[key{e.P, e.M}] = e.V
				}
			}
			headOf := batchHeads(t, s)
			delivered := 0
			for _, d := range s.Sh.Deliveries() {
				h := headOf[d.M]
				want, ok := decided[key{d.P, h}]
				if !ok {
					t.Fatalf("%v trial %d: p%d delivered m%d (batch of m%d) with no Decide event", v, trial, d.P, d.M, h)
				}
				g := s.Sh.Reg.Get(d.M).Dst
				fam := s.Nodes[d.P].consensusFamily(g)
				got, ok := s.Sh.GroupLog(g).Inner().Decided(h, fam)
				if !ok || got != want {
					t.Fatalf("%v trial %d: LOG_g%d decides CONS_{m%d,f%b} = %d,%v; p%d decided %d",
						v, trial, g, h, fam, got, ok, d.P, want)
				}
				delivered++
			}
			if delivered == 0 {
				t.Fatalf("%v trial %d: nothing delivered", v, trial)
			}
		}
	}
}
