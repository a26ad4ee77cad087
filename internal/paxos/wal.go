package paxos

// Durable acceptor state. Every transition of the acceptor (a point
// promise, a range lease grant, an accepted value) and every learnt decision
// is appended to the configured storage.WAL. When the barrier (walSync) runs
// relative to what the transition lets others conclude is the durability
// invariant that makes recovery safe (DESIGN.md §11), stated here once:
//
//  1. A vote for a *remote* proposer leaves the node only after a barrier
//     that covers its record: the message loop defers phase responses to its
//     post-Sync outbox (group commit).
//  2. A node's *own* vote — the local handlePrepare/handleAccept a proposer
//     consults without a loopback packet — is appended at once, the request
//     goes out to the peers, and only then does the proposing goroutine run
//     the barrier and count the vote (ownVote, in launch): persist while the
//     request is on the wire. No code path adds n.p to a prepare or accept
//     quorum, and nothing is decided on the strength of the local vote,
//     before that barrier has returned.
//  3. A decision needs no barrier: every vote it rests on is durable by 1
//     and 2, so the decide broadcast (end) syncs nothing and the message
//     loop never runs a barrier on behalf of the local proposer. The decide
//     record itself rides a later barrier; losing it costs a re-learn. A
//     realm's non-voter, sent no leased accept, writes only decide records
//     and sends no phase response: its loop runs a barrier once
//     maxCommitBatch records wait uncovered, which bounds the re-learns.
//
// What is deliberately NOT persisted: the proposer side. Leases, value pins
// and refusal-ballot hints are performance state — a recovered node simply
// has no lease and re-runs a full round, whose phase-1 adoption
// re-establishes every obligation the old pin protected. The acceptor-side
// lease grant, by contrast, IS a promise (for every covered slot at once)
// and is recovered like one.

import (
	"repro/internal/storage"
	"repro/internal/wire"
)

// WAL record kinds. Payloads use the wire varint codec.
const (
	walPromise uint8 = 1 // inst, ballot                 — phase-1 point promise
	walLease   uint8 = 2 // space, realm, fromSlot, ballot — phase-1 range promise
	walAccept  uint8 = 3 // inst, ballot, val            — phase-2 accepted value
	walDecide  uint8 = 4 // inst, val                    — learnt decision
	walPropose uint8 = 5 // ballot                       — proposer high-water mark (a block ahead)
)

// maxCommitBatch bounds how many queued requests one durability barrier may
// absorb before responses flush (group commit), and how many records the
// message loop leaves uncovered when no response asks for a barrier.
const maxCommitBatch = 64

// walAppend appends one record, failing stop on error: an acceptor that
// cannot make its promises durable must not keep making them.
func (n *Node) walAppend(kind uint8, data []byte) {
	if err := n.wal.Append(storage.Record{Kind: kind, Data: data}); err != nil {
		panic("paxos: wal append: " + err.Error())
	}
	// Bumped after the append returns: a walSync that reads the mark has the
	// record in the WAL before its Sync begins.
	n.walAppended.Add(1)
}

// The slot records are encoded into n.rec under n.mu, the lock the
// transitions they record run under. Reusing the buffer is sound because
// WAL.Append copies a record's data (the storage.WAL contract).

// walVote appends a vote: a point promise (walPromise) or an accepted value
// (walAccept, the one that carries v).
func (n *Node) walVote(kind uint8, inst InstanceID, ballot int64, v Value) {
	e := wire.EncOver(n.rec)
	encInst(&e, inst)
	e.I64(ballot)
	if kind == walAccept {
		e.Bin(v)
	}
	n.rec = e.Bytes()
	n.walAppend(kind, n.rec)
}

func (n *Node) walLease(rk realmKey, fromSlot, ballot int64) {
	e := wire.EncOver(n.rec)
	e.U8(rk.Space)
	e.U64(rk.Realm)
	e.I64(fromSlot)
	e.I64(ballot)
	n.rec = e.Bytes()
	n.walAppend(walLease, n.rec)
}

func (n *Node) walDecide(inst InstanceID, v Value) {
	e := wire.EncOver(n.rec)
	encInst(&e, inst)
	e.Bin(v)
	n.rec = e.Bytes()
	n.walAppend(walDecide, n.rec)
}

// ballotBlock is how far ahead of the ballot in hand claimBallot persists
// its high-water mark: 256 rounds of 64 ballots, so a proposer pays one
// barrier per 256 rounds instead of one per round.
const ballotBlock = 256 * 64

// claimBallot makes sure ballot lies at or below the proposer's durable
// high-water mark before any packet carries it. Proposer leases and value
// pins are not recovered — harmless, a new round re-adopts — but ballot
// *uniqueness* must span incarnations: the pre-crash node may have fired
// value v1 at (slot, b), and a restarted node reusing b with v2 would let
// two values be accepted at one ballot, splitting quorums. The mark is
// persisted a block ahead and ballots below it are handed out without a
// barrier: nobody else can use this process's ballots (the low bits are the
// process), and a recovered proposer starts strictly above the durable mark
// (propRoundFloor), so it skips every ballot the dead incarnation used or
// could still have used — skipping unused ones costs nothing. The barrier
// runs under propMu so a concurrent claimer cannot be handed a ballot below
// a mark that is not durable yet.
func (n *Node) claimBallot(ballot int64) {
	n.propMu.Lock()
	defer n.propMu.Unlock()
	if ballot > n.propUsed {
		n.propUsed = ballot
	}
	if ballot <= n.propMax {
		return
	}
	n.propMax = ballot + ballotBlock
	var e wire.Enc
	e.I64(n.propMax)
	n.walAppend(walPropose, e.Bytes())
	n.walSync()
}

// propRoundFloor seeds Propose's ballot-round counter: the last ballot
// claimed in this incarnation, which after recovery starts at the durable
// mark — above every ballot a previous incarnation could have used (zero on
// a fresh WAL).
func (n *Node) propRoundFloor() int64 {
	n.propMu.Lock()
	defer n.propMu.Unlock()
	return n.propUsed / 64
}

// walSync is the group-commit durability barrier; like walAppend it fails
// stop when storage does. It returns at once when no record was appended
// since the last completed barrier began — a reply that reveals no
// transition (already-decided instance, NACK) and back-to-back callers pay
// nothing. The mark is read before Sync and published after it, so a record
// counts as covered only by a Sync that started after its append.
func (n *Node) walSync() {
	mark := n.walAppended.Load()
	if mark <= n.walSynced.Load() {
		return
	}
	if err := n.wal.Sync(); err != nil {
		panic("paxos: wal sync: " + err.Error())
	}
	for {
		cur := n.walSynced.Load()
		if mark <= cur || n.walSynced.CompareAndSwap(cur, mark) {
			return
		}
	}
}

// recover rebuilds the slot table and the range promises from the WAL,
// called on construction before the message loop starts serving. Replay
// order is mutation order (appends happen under the lock the state changes
// under) and each record replays through the rule that made it, so the final
// pre-crash state comes back; the max() guards and entry.accept's kept
// decision defend against a WAL fed by an older, less ordered writer.
func (n *Node) recover() {
	err := n.wal.Replay(func(rec storage.Record) error {
		d := wire.NewDec(rec.Data)
		switch rec.Kind {
		case walPromise:
			inst := decInst(d)
			b := d.I64()
			if d.Err() == nil {
				if e := n.slots.at(inst); b > e.promised {
					e.promised = b
				}
			}
		case walLease:
			rk := realmKey{Space: d.U8(), Realm: d.U64()}
			from, b := d.I64(), d.I64()
			if d.Err() == nil {
				n.grants[rk] = leaseGrant{Ballot: b, FromSlot: from}
			}
		case walAccept:
			inst := decInst(d)
			b := d.I64()
			v := Value(d.Bin())
			if d.Err() == nil {
				if e := n.slots.at(inst); b >= e.ballot {
					e.accept(b, v)
				}
			}
		case walDecide:
			inst := decInst(d)
			v := Value(d.Bin())
			if d.Err() == nil {
				n.slots.at(inst).decide(v)
			}
		case walPropose:
			b := d.I64()
			if d.Err() == nil && b > n.propMax {
				n.propMax, n.propUsed = b, b
			}
		}
		// An undecodable record under a valid checksum is a schema skew, not
		// corruption; skipping it beats refusing to start. (Unknown kinds
		// fall through here too, for the same forward-compatibility reason.)
		return nil
	})
	if err != nil {
		panic("paxos: wal replay: " + err.Error())
	}
}
