package core

import (
	"repro/internal/check"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/obs"
)

// System wires a topology, a failure pattern, the shared state, one node per
// process and an engine into a runnable atomic-multicast instance.
type System struct {
	Sh    *Shared
	Nodes []*Node
	Eng   *engine.Engine
	Pat   *failure.Pattern
}

// NewSystem builds a system. The engine seed makes the schedule
// reproducible.
func NewSystem(topo *groups.Topology, pat *failure.Pattern, opt Options, seed int64) *System {
	return NewSystemWithConfig(topo, pat, opt, engine.Config{
		Pattern: pat,
		Seed:    seed,
		Policy:  engine.RandomOrder,
	})
}

// NewSystemWithConfig builds a system with full engine control (used by the
// necessity emulations to restrict participants).
func NewSystemWithConfig(topo *groups.Topology, pat *failure.Pattern, opt Options, cfg engine.Config) *System {
	sh := NewShared(topo, pat, opt)
	nodes := make([]*Node, topo.NumProcesses())
	autos := make([]engine.Automaton, topo.NumProcesses())
	for p := 0; p < topo.NumProcesses(); p++ {
		nodes[p] = NewNode(groups.Process(p), sh)
		autos[p] = nodes[p]
	}
	if cfg.Pattern == nil {
		cfg.Pattern = pat
	}
	// Quiescence must wait out the detector stabilisation delay.
	if cfg.QuiesceSlack == 0 {
		cfg.QuiesceSlack = 64 + opt.FD.Delay
	}
	return &System{
		Sh:    sh,
		Nodes: nodes,
		Eng:   engine.New(cfg, autos...),
		Pat:   pat,
	}
}

// Multicast issues a client multicast from src to group dst now (before or
// during the run). It returns the registered message.
func (s *System) Multicast(src groups.Process, dst groups.GroupID, payload []byte) *msg.Message {
	return s.MulticastClassed(src, dst, payload, msg.ClassAll)
}

// MulticastClassed is Multicast with an explicit conflict-class tag
// (Generic-variant runs driven by class-tagged schedules).
func (s *System) MulticastClassed(src groups.Process, dst groups.GroupID, payload []byte, class msg.Class) *msg.Message {
	m := s.Sh.RequestClassed(src, dst, payload, class, s.Eng.Now())
	s.Nodes[src].Multicast(m)
	return m
}

// MulticastAt schedules a client multicast at virtual time t.
func (s *System) MulticastAt(t failure.Time, src groups.Process, dst groups.GroupID, payload []byte) {
	s.MulticastClassedAt(t, src, dst, payload, msg.ClassAll)
}

// MulticastClassedAt schedules a class-tagged client multicast at virtual
// time t.
func (s *System) MulticastClassedAt(t failure.Time, src groups.Process, dst groups.GroupID, payload []byte, class msg.Class) {
	s.Eng.At(t, func() {
		if s.Pat.IsAlive(src, t) {
			s.MulticastClassed(src, dst, payload, class)
		}
	})
}

// Run drives the system to quiescence; it returns false when the step
// budget was exhausted first (a liveness failure for the scenarios the
// tests construct).
func (s *System) Run() bool { return s.Eng.Run() }

// RunInterruptible is Run with a cancellation hook (see
// engine.RunInterruptible).
func (s *System) RunInterruptible(stop func() bool) engine.Outcome {
	return s.Eng.RunInterruptible(stop)
}

// Report assembles the run's observability. The recorder part (timeline,
// latency, coordination) is zero-valued when the run had no recorder; the
// engine ledgers (steps, charges, synthetic messages) are always present —
// the Sim backend accounts them unconditionally.
func (s *System) Report() obs.RunReport {
	rep := s.Sh.Report("sim", s.Eng.Now())
	rep.StepsAccounted = true
	rep.Steps = make([]int64, rep.Processes)
	for p := 0; p < rep.Processes; p++ {
		pr := groups.Process(p)
		rep.Steps[p] = s.Eng.Steps(pr) + s.Eng.Charges(pr)
		rep.TotalSteps += rep.Steps[p]
	}
	if s.Sh.Opt.ChargeObjects {
		rep.MessagesAccounted = true
		rep.Messages = s.Eng.Messages()
	}
	return rep
}

// Trace exports the run evidence for the checkers, with the engine's step
// ledger.
func (s *System) Trace() *check.Trace { return s.Sh.Trace(s.Eng.TookSteps) }

// Check runs every checker appropriate for the system's variant and returns
// the violations (empty means the run satisfied the specification).
func (s *System) Check() []*check.Violation { return s.Sh.Check(s.Trace()) }

// Node returns the node of process p.
func (s *System) Node(p groups.Process) *Node { return s.Nodes[p] }

// DeliveredAt returns the local delivery sequence of p.
func (s *System) DeliveredAt(p groups.Process) []msg.ID { return s.Nodes[p].Delivered() }
