package replog

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Applied-op journal: per replica, exactly which op was applied from which
// slot, in application order. It is what fork checks compare (JournalFork:
// two replicas' journals agree on their common prefix), and what a fork is
// diffed against the decision snapshot with (live.System.JournalDiff): if
// the journals disagree where the snapshots agree, the bug is in decide
// delivery; if the snapshots disagree too, it is a consensus fork.
//
// Off by default — a journal of every applied op would grow without bound
// on long soaks — and enabled either by SetJournal or the
// REPRO_REPLOG_JOURNAL environment variable.

// journalOn gates journal collection globally (a per-replica flag would
// need plumbing through every construction site for a debug-only tool).
var journalOn atomic.Bool

func init() {
	if os.Getenv("REPRO_REPLOG_JOURNAL") != "" {
		journalOn.Store(true)
	}
}

// SetJournal switches applied-op journalling on or off for replicas' future
// applies. Tests flip it on around the window they want evidence for.
func SetJournal(on bool) { journalOn.Store(on) }

// JournalEntry is one applied operation: the slot whose decided batch
// carried it and the op itself, in application order.
type JournalEntry struct {
	Slot int
	Op   Op
}

// Journal returns a copy of the replica's applied-op journal (empty unless
// journalling was enabled during the applies).
func (r *Replica) Journal() []JournalEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]JournalEntry(nil), r.journal...)
}

// JournalFork describes the first entry at which two replicas' applied-op
// journals differ on their common prefix, or returns nil: the fork check for
// replicas at different apply points. Their log copies' item orders are not
// one — a bump applied past the lagging point moves an item without a fork.
func JournalFork(a, b []JournalEntry) error {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Errorf("applied journals fork at op %d: slot %d %+v vs slot %d %+v",
				i, a[i].Slot, a[i].Op, b[i].Slot, b[i].Op)
		}
	}
	return nil
}
