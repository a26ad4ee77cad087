// Package net is a small in-memory message-passing layer: reliable
// point-to-point links between processes implemented with goroutines and
// channels. The quorum-based substrates (internal/paxos, internal/replog)
// run on it; crash injection silences a process's inbox and outbox, which is
// how fail-stop behaviour surfaces to its peers (no more replies — exactly
// the asynchronous model's ambiguity that failure detectors resolve).
package net

import (
	"sync"
	"sync/atomic"

	"repro/internal/groups"
	"repro/internal/obs"
)

// MsgType is the typed identity of a protocol message — a one-byte wire
// tag. It replaces the old stringly Packet.Kind: dispatch compares a byte
// instead of interning strings, and the binary codec (internal/wire) keys
// its decoder registry on it. The value space is partitioned by protocol in
// internal/wire; this package treats it as opaque.
type MsgType uint8

// Packet is a message in flight.
type Packet struct {
	From, To groups.Process
	Type     MsgType
	Body     any
}

// Transport is the message-passing fabric the live substrates run on. The
// reliable Network below implements it, and so does the adversarial wrapper
// in internal/chaos — every quorum protocol (paxos, replog) is written
// against this interface so it runs unmodified over either fabric.
type Transport interface {
	// N returns the number of processes.
	N() int
	// Send delivers (or drops, or delays — per the fabric) a packet.
	Send(from, to groups.Process, t MsgType, body any)
	// Broadcast sends to every member of the set.
	Broadcast(from groups.Process, set groups.ProcSet, t MsgType, body any)
	// Inbox returns the receive channel of p. It is closed by Close.
	Inbox(p groups.Process) <-chan Packet
	// Crash silences p permanently (fail-stop).
	Crash(p groups.Process)
	// Crashed reports whether p was crashed.
	Crashed(p groups.Process) bool
	// Close ends the run: inboxes close and further sends are no-ops.
	Close()
}

// endpoint is the per-process receive state. Each endpoint has its own
// lock, so senders to different recipients never serialise on a shared
// mutex — only senders racing for the same inbox (and Close/Crash touching
// it) contend.
type endpoint struct {
	mu     sync.Mutex
	closed bool // set by Network.Close before the channel is closed
	ch     chan Packet
}

// Network connects n processes with reliable FIFO links. The state is
// sharded per endpoint: crash flags are per-process atomics, the global
// closed flag is an atomic fast path, and the only lock a send takes is the
// recipient's own (needed to order the channel send against Close).
type Network struct {
	n        int
	dropped  atomic.Uint64
	counters *obs.NetCounters
	closed   atomic.Bool
	dead     []atomic.Bool
	eps      []endpoint
}

var _ Transport = (*Network)(nil)

// inboxDepth bounds per-process buffering; the substrates' request/response
// protocols keep traffic far below it.
const inboxDepth = 1024

// New builds a network over n processes.
func New(n int) *Network {
	nw := &Network{
		n:        n,
		counters: obs.NewNetCounters(n),
		dead:     make([]atomic.Bool, n),
		eps:      make([]endpoint, n),
	}
	for i := range nw.eps {
		nw.eps[i].ch = make(chan Packet, inboxDepth)
	}
	return nw
}

// N returns the number of processes.
func (nw *Network) N() int { return nw.n }

// Send delivers a packet to the recipient's inbox. Packets from or to
// crashed processes are dropped silently, and sends after Close are no-ops
// (a closed network models the end of the run).
func (nw *Network) Send(from, to groups.Process, t MsgType, body any) {
	if nw.closed.Load() || nw.dead[from].Load() || nw.dead[to].Load() {
		return
	}
	ep := &nw.eps[to]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	// The send is non-blocking and performed under the endpoint's lock, so
	// it cannot race with Close closing the channel.
	select {
	case ep.ch <- Packet{From: from, To: to, Type: t, Body: body}:
		nw.counters.Sent(from, to, obs.EstimateSize(body))
	default:
		// Inbox overflow: drop, and count it. The substrates retransmit, so
		// a drop only costs latency and cannot violate safety — but chaos
		// runs can legitimately fill inboxes, and a silent overflow would be
		// indistinguishable from injected loss, so the count keeps the two
		// observable apart.
		nw.dropped.Add(1)
		nw.counters.Overflow()
	}
}

// NetReport returns the per-link traffic counters accumulated so far. It
// implements obs.NetReporter.
func (nw *Network) NetReport() *obs.NetReport { return nw.counters.Report() }

// Dropped returns how many packets were dropped on a full inbox since the
// network was built.
func (nw *Network) Dropped() uint64 { return nw.dropped.Load() }

// Broadcast sends to every member of the set.
func (nw *Network) Broadcast(from groups.Process, set groups.ProcSet, t MsgType, body any) {
	for _, p := range set.Members() {
		nw.Send(from, p, t, body)
	}
}

// Inbox returns the receive channel of p — the current incarnation's: after
// a Restart the old channel is closed and a fresh one takes its place, so
// the read is ordered against that swap by the endpoint lock.
func (nw *Network) Inbox(p groups.Process) <-chan Packet {
	ep := &nw.eps[p]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.ch
}

// Crash silences p: its pending inbox is drained and all future traffic
// from or to it is dropped.
func (nw *Network) Crash(p groups.Process) {
	nw.dead[p].Store(true)
	ep := &nw.eps[p]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	for {
		select {
		case <-ep.ch:
		default:
			return
		}
	}
}

// Crashed reports whether p was crashed.
func (nw *Network) Crashed(p groups.Process) bool { return nw.dead[p].Load() }

// Restarter is the optional power-cycle capability of a transport: Crash
// followed by Restart models a process being killed and later rebooted with
// the same identity. Fabrics that cannot revive an endpoint (or that model
// reconnection themselves, like the TCP transport, where a restarted daemon
// simply redials) need not implement it.
type Restarter interface {
	Restart(p groups.Process)
}

// Restart power-cycles p's endpoint. The old inbox channel is closed —
// terminating the dead incarnation's receive loops the way process death
// would — and a fresh one is installed for the recovered node before the
// crash flag clears. Packets queued for the old incarnation are discarded:
// they were addressed to a process that no longer exists, and the fair-lossy
// link model lets peers retransmit.
//
// The caller sequences Crash(p), node recovery from its WAL, then
// Restart(p); only after Restart does the new incarnation's Inbox(p) return
// the live channel.
func (nw *Network) Restart(p groups.Process) {
	ep := &nw.eps[p]
	ep.mu.Lock()
	if !ep.closed {
		close(ep.ch)
		ep.ch = make(chan Packet, inboxDepth)
	}
	ep.mu.Unlock()
	nw.dead[p].Store(false)
}

// Close stops all future traffic (used at test teardown so server
// goroutines drain and exit).
func (nw *Network) Close() {
	if nw.closed.Swap(true) {
		return
	}
	for i := range nw.eps {
		ep := &nw.eps[i]
		ep.mu.Lock()
		ep.closed = true
		close(ep.ch)
		ep.mu.Unlock()
	}
}
