// Package groups models processes, destination groups, intersection graphs,
// and the cyclic families of Sutra's genuine atomic multicast paper (PODC'22).
//
// A family of destination groups is cyclic when its intersection graph is
// hamiltonian. The cyclicity failure detector γ and the core multicast
// algorithm are both parameterised by this structure, which this package
// computes once per topology.
package groups

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Process identifies a process. Processes are numbered from 0.
type Process int

// ProcSet is a set of processes represented as a bitmask. The representation
// bounds a topology to 64 processes, which is far beyond the group sizes the
// paper reasons about (its running example has five processes).
type ProcSet uint64

// MaxProcesses is the largest number of processes a ProcSet can hold.
const MaxProcesses = 64

// NewProcSet builds a set from the given processes.
func NewProcSet(ps ...Process) ProcSet {
	var s ProcSet
	for _, p := range ps {
		s = s.Add(p)
	}
	return s
}

// Add returns the set with p added.
func (s ProcSet) Add(p Process) ProcSet { return s | 1<<uint(p) }

// Remove returns the set with p removed.
func (s ProcSet) Remove(p Process) ProcSet { return s &^ (1 << uint(p)) }

// Has reports whether p is in the set.
func (s ProcSet) Has(p Process) bool { return s&(1<<uint(p)) != 0 }

// Union returns s ∪ t.
func (s ProcSet) Union(t ProcSet) ProcSet { return s | t }

// Intersect returns s ∩ t.
func (s ProcSet) Intersect(t ProcSet) ProcSet { return s & t }

// Diff returns s \ t.
func (s ProcSet) Diff(t ProcSet) ProcSet { return s &^ t }

// Empty reports whether the set has no members.
func (s ProcSet) Empty() bool { return s == 0 }

// Count returns the number of members.
func (s ProcSet) Count() int { return bits.OnesCount64(uint64(s)) }

// SubsetOf reports whether every member of s is in t.
func (s ProcSet) SubsetOf(t ProcSet) bool { return s&^t == 0 }

// Each calls fn on the processes in the set in increasing order. It walks
// the set's bits and builds nothing, so hot paths use it where Members
// would allocate a slice per call.
func (s ProcSet) Each(fn func(Process)) {
	for v := uint64(s); v != 0; v &= v - 1 {
		fn(Process(bits.TrailingZeros64(v)))
	}
}

// Members returns the processes in the set in increasing order.
func (s ProcSet) Members() []Process {
	out := make([]Process, 0, s.Count())
	s.Each(func(p Process) { out = append(out, p) })
	return out
}

// Min returns the smallest member. It panics on the empty set.
func (s ProcSet) Min() Process {
	if s == 0 {
		panic("groups: Min of empty ProcSet")
	}
	return Process(bits.TrailingZeros64(uint64(s)))
}

// String renders the set as {p0,p3,...}.
func (s ProcSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "p%d", p)
	}
	b.WriteByte('}')
	return b.String()
}

// SortProcesses sorts a slice of processes in place.
func SortProcesses(ps []Process) {
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
}
