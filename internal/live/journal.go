package live

import (
	"fmt"

	"repro/internal/paxos"
	"repro/internal/replog"
)

// JournalDiff diffs every replica's applied-op journal against the decided
// batches in the same process's own paxos decision snapshot — the ROADMAP
// item-3 flake hunt as a callable check. For each journalled slot, the op
// sequence applied at apply time must be exactly the op sequence the
// decided value of that slot decodes to. A mismatch here while the
// cross-process decision snapshots still agree bit-for-bit localises a fork
// in decide delivery (applyAt was fed a value the acceptor never recorded)
// rather than in consensus itself.
//
// Journals are empty unless replog.SetJournal(true) (or the soak env
// toggle) was armed before the system started; with journalling off the
// diff trivially passes. Call after Stop — the walk reads replica state
// without synchronising against live stepping.
func (s *System) JournalDiff() []error {
	var errs []error
	s.lk.Lock()
	reps := make(map[repKey]*replog.Replica, len(s.reps))
	for key, rep := range s.reps {
		reps[key] = rep
	}
	s.lk.Unlock()
	for key, rep := range reps {
		snap := s.pax[key.p].SnapshotDecisions()
		j := rep.Journal()
		for i := 0; i < len(j); {
			slot := j[i].Slot
			inst := paxos.InstanceID{Space: paxos.SpaceLog, Realm: pairRealm(key.pair), Slot: int64(slot)}
			v, ok := snap[inst]
			if !ok {
				errs = append(errs, fmt.Errorf("p%d log %v: applied slot %d that its own decision snapshot does not contain",
					key.p, key.pair, slot))
				break // the journal walk needs the batch length to advance
			}
			want, err := replog.DecodeBatch(v)
			if err != nil {
				errs = append(errs, fmt.Errorf("p%d log %v: decided batch of slot %d does not decode: %v",
					key.p, key.pair, slot, err))
				break
			}
			for k := range want {
				if i+k >= len(j) || j[i+k].Slot != slot || j[i+k].Op != want[k] {
					errs = append(errs, fmt.Errorf("p%d log %v: applied ops of slot %d diverge from the decided batch at op %d (journal tail %+v, decided %+v)",
						key.p, key.pair, slot, k, j[i:], want))
					return errs
				}
			}
			i += len(want)
		}
	}
	return errs
}
