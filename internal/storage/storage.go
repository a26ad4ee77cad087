// Package storage provides the write-ahead log behind the live substrate's
// durable acceptors.
//
// A WAL is a flat, append-only sequence of opaque records. Callers (the
// paxos acceptor, primarily) append records describing state transitions
// they are about to externalize — a promise, an accepted value, a decide —
// and call Sync before sending the message that reveals the transition to
// the rest of the system. On restart, Replay hands back the durable prefix
// in append order and the caller rebuilds its in-memory state before
// serving traffic.
//
// Two implementations:
//
//   - Mem keeps records in memory, as one append-only byte log in pages
//     that hold no pointers, with a durable watermark that Sync moves and a
//     power cycle cuts back to. It is the default for in-process
//     deployments: a crashed process loses nothing because nothing outlives
//     the process anyway, while power-cycle tests hand a dead node's log to
//     its replacement.
//   - File persists records to checksummed segment files in a directory,
//     with group-commit fsync batching and segment rotation; it is what a
//     daemon's -data-dir points at.
//
// The interface is deliberately tiny: no keys, no indices, no truncation.
// Snapshot-based log compaction is a follow-on; the acceptor's state for a
// run is small enough that full replay is cheap.
package storage

// Record is one durable WAL entry: a caller-defined kind tag plus an opaque
// payload. The WAL never interprets either field; kinds let one log carry
// several record schemas (promise, accept, decide, ...).
type Record struct {
	Kind uint8
	Data []byte
}

// WAL is an append-only crash-durable record log.
//
// Usage contract: Replay exactly once, before the first Append; then any
// number of Append/Sync rounds; then Close. Append buffers — a record is
// not durable (and must not be relied upon) until a subsequent Sync
// returns. Batching several Appends under one Sync is the group-commit
// path and is how callers amortize fsync cost across a burst of messages.
//
// Implementations are safe for concurrent use, but the ordering guarantee
// is per-caller: records appended by one goroutine are replayed in that
// goroutine's append order.
type WAL interface {
	// Replay invokes fn for every durable record in append order, stopping
	// early if fn returns an error (which it then returns). The Data slice
	// passed to fn is only valid during the call.
	Replay(fn func(Record) error) error

	// Append buffers rec for the next Sync. The record's Data is copied;
	// the caller may reuse the slice.
	Append(rec Record) error

	// Sync makes every record appended so far durable. It is the
	// group-commit barrier: one Sync covers all Appends since the last.
	Sync() error

	// Close flushes buffered records (without forcing durability beyond
	// what Sync already guaranteed) and releases resources.
	Close() error
}
