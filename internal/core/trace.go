package core

import (
	"repro/internal/check"
	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/obs"
)

// Trace exports the run evidence for the checkers, whichever backend ran
// it: the local orders as the delivery trace recorded them, the failure
// pattern the detectors were built from, and the real-time endpoints of
// every message. tookSteps is the run's step ledger; nil (a wall-clock run
// keeps none) skips the Minimality checker.
func (sh *Shared) Trace(tookSteps func(groups.Process) bool) *check.Trace {
	local := make(map[groups.Process][]msg.ID)
	for _, d := range sh.Deliveries() {
		local[d.P] = append(local[d.P], d.M)
	}
	multicast := make(map[msg.ID]failure.Time, sh.Reg.Len())
	first := make(map[msg.ID]failure.Time)
	for _, m := range sh.Reg.All() {
		multicast[m.ID] = sh.RequestedAt(m.ID)
		if t, ok := sh.FirstDeliveredAt(m.ID); ok {
			first[m.ID] = t
		}
	}
	tr := &check.Trace{
		Topo:           sh.Topo,
		Pat:            sh.Mu.Pattern(),
		Reg:            sh.Reg,
		LocalOrder:     local,
		Multicast:      multicast,
		FirstDelivered: first,
		TookSteps:      tookSteps,
	}
	if sh.Opt.Variant == Generic {
		tr.Conflicts = sh.Conflicts
	}
	return tr
}

// Check runs every checker appropriate for the run's variant over tr and
// returns the violations (empty means the run satisfied the specification).
func (sh *Shared) Check(tr *check.Trace) []*check.Violation {
	v := sh.Opt.Variant
	return check.All(tr, v == Strict, v == Pairwise, v == Generic)
}

// Report assembles the recorder's view of the run under the header every
// backend shares; the backend decorates it with the ledgers only it keeps.
func (sh *Shared) Report(backend string, ticks failure.Time) obs.RunReport {
	rep := sh.Opt.Rec.Report()
	rep.Backend = backend
	rep.Processes = sh.Topo.NumProcesses()
	rep.Groups = sh.Topo.NumGroups()
	rep.Ticks = int64(ticks)
	return rep
}
