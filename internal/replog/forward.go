package replog

import (
	"sync"
	"time"

	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/paxos"
	"repro/internal/wire"
)

// Leader forwarding. A replica whose process is not the realm's leaseholder
// used to propose every operation itself, which under load degenerates into
// ballot duels: each follower's synchronous Propose fights the leader's
// pipeline for the same slots. Instead, followers hand their pending
// operations to the leaseholder as one TReplogFwd frame; the leader's submit
// loop batches them into its windowed slot stream alongside its own, so the
// realm sees one proposer and many ops per accept round.
//
// Forwarding is strictly a hint. The follower keeps its waiters — they
// complete when the decided slots apply locally, exactly as if the op had
// been proposed here — and falls back to proposing itself once fwdPatience
// elapses without satisfaction (leader crashed, frame lost, stale Ω). Both
// log operations are idempotent, so an op landing in two batches is the
// sequential spec's no-op; losing or duplicating a forward costs latency,
// never safety.
const (
	// fwdResend is the least interval at which a follower re-sends its
	// still-pending ops to the leaseholder: the frame is fire-and-forget, so
	// a drop is repaired by the next resend rather than an ack protocol. The
	// interval in force is resendEvery.
	fwdResend = 4 * time.Millisecond
	// fwdPatience is how long an op may ride the forwarding hint before the
	// follower proposes it locally — the liveness backstop, sized to a few
	// resends so a healthy leader nearly always wins first.
	fwdPatience = 16 * time.Millisecond
)

// resendEvery is the resend interval in force: a forwarded op that is merely
// on its way — forward, accept round, decide — is not re-sent, so the
// interval follows the evidence→decision time this replica observes
// (hedgeDelay, the apply loop's estimator, margin included) and never drops
// below fwdResend. It is not stretched further: one resend must still have
// time to land before fwdPatience runs out.
func (r *Replica) resendEvery() time.Duration {
	if d := r.hedgeDelay(); d > fwdResend {
		return d
	}
	return fwdResend
}

// fwdMux fans TReplogFwd frames arriving at one paxos node out to the
// replicas hosted on it, by realm. The node's message loop is the single
// consumer of the process inbox, so replicas cannot each read their own
// frames; instead the mux is mounted on the node as the handler of the wire
// type and every replica adds itself to the shared realm table. The mux —
// and through it every replica, log and queue — is reachable only from its
// node, so a stopped cluster is garbage once its owner drops it.
type fwdMux struct {
	mu   sync.Mutex
	reps map[uint64]*Replica
}

// muxFor returns the forwarding mux of a node, mounting it on first use.
func muxFor(node *paxos.Node) *fwdMux {
	return node.Mount(wire.TReplogFwd, func() paxos.Handler {
		return &fwdMux{reps: make(map[uint64]*Replica)}
	}).(*fwdMux)
}

func (m *fwdMux) add(realm uint64, r *Replica) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reps[realm] = r
}

// Dispatch runs on the paxos node's message loop and must not block: it
// resolves the realm and hands the ops to the replica's lock-guarded queue.
// A forward for a realm with no replica here is dropped like any lost frame
// (the forwarder's patience serves it), and so is an empty batch — the NACK
// of peers that predate its removal.
func (m *fwdMux) Dispatch(pkt net.Packet) {
	f, ok := pkt.Body.(FwdBatch)
	if !ok {
		return
	}
	m.mu.Lock()
	r := m.reps[f.Realm]
	m.mu.Unlock()
	if r != nil {
		r.enqueueRemote(f.Ops)
	}
}

// enqueueRemote queues forwarded operations at the (presumed) leaseholder.
// Remote waiters have no done channel — nobody here blocks on them; the
// forwarding follower completes its own waiter when the decided slot applies
// over there. Ops already satisfied by the replicated state or already
// queued (the resend path re-sends liberally) are dropped.
func (r *Replica) enqueueRemote(ops []Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	accepted := 0
next:
	for _, o := range ops {
		switch o.Kind {
		case opAppend:
			if r.local.Appended(o.Datum) {
				continue
			}
		case opBumpAndLock:
			if r.local.Locked(o.Datum) {
				continue
			}
		default:
			continue
		}
		for _, w := range r.queue {
			if w.state != stateDone && w.op == o {
				continue next
			}
		}
		r.queue = append(r.queue, &waiter{op: o, enq: time.Now()})
		accepted++
	}
	if accepted > 0 {
		obs.Add(&r.counters.RemoteOps, int64(accepted))
		select {
		case r.kick <- struct{}{}:
		default:
		}
		r.armHedge()
	}
}

// splitPending partitions the pending queue at a follower: ops whose
// patience expired are promoted to inflight (the caller proposes them
// locally), the rest are candidates for (re-)forwarding. resend gates
// whether already-forwarded ops are sent again. pending reports whether any
// pending op remains queued behind the hint, i.e. whether the caller must
// arm its retry timer.
func (r *Replica) splitPending(now time.Time, resend bool) (overdue []*waiter, fwd []Op, pending bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.queue {
		if w.state != statePending {
			continue
		}
		if now.Sub(w.enq) >= fwdPatience && len(overdue) < maxBatchOps {
			w.state = stateInflight
			overdue = append(overdue, w)
			continue
		}
		pending = true
		if (resend || !w.fwd) && len(fwd) < maxBatchOps {
			w.fwd = true
			fwd = append(fwd, w.op)
		}
	}
	return overdue, fwd, pending
}
