// Package obs is the run-level observability layer shared by both backends:
// a lock-cheap recorder of structured run events (multicast issued, log
// append, bump-and-lock, consensus propose/decide, delivery) with
// per-message latency samples and per-pair coordination counts, plus atomic
// counter blocks the live substrate bumps on its hot paths (transport
// packets/bytes per link, paxos rounds and retransmits, replog applies,
// chaos injections).
//
// The Sim backend stamps events in virtual time, the Live backend in wall
// time, so one RunReport type (report.go) carries delivery-latency
// histograms, per-process footprints and per-pair g∩h coordination counts
// for both substrates. That makes Proposition 47's "contention-free
// coordination stays inside g∩h" an observable quantity rather than only a
// checker verdict: in a contention-free run the coordination count of every
// process outside g∩h is zero.
//
// Cost discipline: counters are plain atomics owned by the subsystems; the
// event timeline takes one short critical section per recorded event and is
// capped (overflow is counted, never silent). A nil *Recorder is a valid
// no-op recorder — every method is nil-safe — so uninstrumented runs pay a
// single pointer test per call site.
package obs

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
)

// ErrNotAccounted is returned for quantities the run did not measure: step
// ledgers on the Live backend, synthetic message counts without the §4.3
// cost model, or any report when observability was disabled. Callers branch
// on it with errors.Is instead of receiving a fabricated zero.
var ErrNotAccounted = errors.New("obs: quantity not accounted on this run")

// Level selects how much the recorder keeps.
type Level int

const (
	// LevelAll keeps the event timeline, latency samples, coordination
	// counts and counters. The default.
	LevelAll Level = iota
	// LevelCounters drops the event timeline but keeps everything else —
	// the right setting for long soaks where a full timeline would grow
	// without bound.
	LevelCounters
	// LevelOff records nothing (Report returns ErrNotAccounted upstream).
	LevelOff
)

// Kind is the type of a run event.
type Kind uint8

const (
	// EvMulticast is a client multicast entering the system.
	EvMulticast Kind = iota + 1
	// EvAppend is LOG.append on a group or pair log.
	EvAppend
	// EvBump is LOG.bumpAndLock.
	EvBump
	// EvPropose is a CONS_{m,f} proposal.
	EvPropose
	// EvDecide is the corresponding decision being learnt.
	EvDecide
	// EvDeliver is a local delivery.
	EvDeliver
)

// String renders the kind for timelines.
func (k Kind) String() string {
	switch k {
	case EvMulticast:
		return "multicast"
	case EvAppend:
		return "append"
	case EvBump:
		return "bump"
	case EvPropose:
		return "propose"
	case EvDecide:
		return "decide"
	case EvDeliver:
		return "deliver"
	}
	return "?"
}

// Event is one structured run event. T is the backend's clock — virtual
// time under Sim, ~1ms ticks under Live — and Wall is the wall-clock offset
// from the run's start, zero on Sim so that same-seed Sim event streams are
// bit-identical.
type Event struct {
	Seq  int64          `json:"seq"`
	Kind Kind           `json:"kind"`
	P    groups.Process `json:"p"`
	M    msg.ID         `json:"m"`
	G    groups.GroupID `json:"g"`
	H    groups.GroupID `json:"h"`
	Aux  uint8          `json:"aux,omitempty"` // logobj datum kind on appends
	V    int            `json:"v,omitempty"`   // position / proposed / decided value
	T    failure.Time   `json:"t"`
	Wall time.Duration  `json:"wall,omitempty"`
}

// Pair is the canonical unordered pair of groups whose intersection a log
// serves (A == B for a group log).
type Pair struct {
	A, B groups.GroupID
}

// Options parameterise a recorder.
type Options struct {
	// Level selects how much is kept (default LevelAll).
	Level Level
	// WallClock stamps events and latency samples with wall time measured
	// from NewRecorder. Live runs set it; Sim runs must not (determinism).
	WallClock bool
	// MaxEvents caps the timeline; overflow increments a counter instead of
	// growing without bound. Default 1 << 20.
	MaxEvents int
}

// Recorder collects one run's observability. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops).
type Recorder struct {
	level Level
	epoch time.Time // zero ⇒ no wall stamps
	max   int

	paxos  PaxosCounters
	replog ReplogCounters
	wal    WALCounters
	sched  SchedCounters

	mu         sync.Mutex
	seq        int64
	events     []Event
	truncated  int64
	reqTick    map[msg.ID]failure.Time
	reqWall    map[msg.ID]time.Duration
	tickLat    []float64
	wallLat    []float64
	coord      map[Pair]*pairCoord
	multicasts int64
	deliveries int64

	// Generic-variant observability: deliveries that skipped the g∩h
	// coordination entirely, and the population of each conflict class seen
	// at multicast time.
	fastDeliveries int64
	classes        map[uint64]int64
}

type pairCoord struct {
	ops       int64
	contended int64
	perProc   map[groups.Process]int64
}

// NewRecorder builds a recorder. A LevelOff recorder is returned as nil —
// the nil-safe methods make that the cheapest possible off switch.
func NewRecorder(o Options) *Recorder {
	if o.Level == LevelOff {
		return nil
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 1 << 20
	}
	r := &Recorder{
		level:   o.Level,
		max:     o.MaxEvents,
		reqTick: make(map[msg.ID]failure.Time),
		reqWall: make(map[msg.ID]time.Duration),
		coord:   make(map[Pair]*pairCoord),
		classes: make(map[uint64]int64),
	}
	if o.WallClock {
		r.epoch = time.Now()
	}
	return r
}

// Paxos returns the recorder's paxos counter block (nil on a nil recorder).
func (r *Recorder) Paxos() *PaxosCounters {
	if r == nil {
		return nil
	}
	return &r.paxos
}

// Replog returns the recorder's replog counter block (nil on a nil recorder).
func (r *Recorder) Replog() *ReplogCounters {
	if r == nil {
		return nil
	}
	return &r.replog
}

// WAL returns the recorder's write-ahead-log counter block (nil on a nil
// recorder).
func (r *Recorder) WAL() *WALCounters {
	if r == nil {
		return nil
	}
	return &r.wal
}

// Sched returns the recorder's scheduler counter block (nil on a nil
// recorder).
func (r *Recorder) Sched() *SchedCounters {
	if r == nil {
		return nil
	}
	return &r.sched
}

// wallNow returns the wall offset since the epoch, or zero when the
// recorder does not stamp wall time.
func (r *Recorder) wallNow() time.Duration {
	if r.epoch.IsZero() {
		return 0
	}
	return time.Since(r.epoch)
}

// record appends one event under the cap (caller holds r.mu).
func (r *Recorder) record(e Event) {
	if r.level != LevelAll {
		return
	}
	if len(r.events) >= r.max {
		r.truncated++
		return
	}
	e.Seq = r.seq
	r.seq++
	r.events = append(r.events, e)
}

// Multicast records a client multicast entering the system; its timestamp
// is the left endpoint of every latency sample of m.
func (r *Recorder) Multicast(p groups.Process, m msg.ID, g groups.GroupID, t failure.Time) {
	if r == nil {
		return
	}
	w := r.wallNow()
	r.mu.Lock()
	r.multicasts++
	if _, ok := r.reqTick[m]; !ok {
		r.reqTick[m] = t
		r.reqWall[m] = w
	}
	r.record(Event{Kind: EvMulticast, P: p, M: m, G: g, H: g, T: t, Wall: w})
	r.mu.Unlock()
}

// Deliver records a local delivery and takes a latency sample against the
// multicast time of m.
func (r *Recorder) Deliver(p groups.Process, m msg.ID, g groups.GroupID, t failure.Time) {
	if r == nil {
		return
	}
	w := r.wallNow()
	r.mu.Lock()
	r.deliveries++
	if req, ok := r.reqTick[m]; ok {
		r.tickLat = append(r.tickLat, float64(t-req))
		if !r.epoch.IsZero() {
			r.wallLat = append(r.wallLat, float64(w-r.reqWall[m])/float64(time.Millisecond))
		}
	}
	r.record(Event{Kind: EvDeliver, P: p, M: m, G: g, H: g, T: t, Wall: w})
	r.mu.Unlock()
}

// Append records LOG_{g∩h}.append (g == h for a group log). aux is the
// datum kind, v the resulting position when known.
func (r *Recorder) Append(p groups.Process, m msg.ID, g, h groups.GroupID, aux uint8, v int, t failure.Time) {
	if r == nil {
		return
	}
	w := r.wallNow()
	r.mu.Lock()
	r.record(Event{Kind: EvAppend, P: p, M: m, G: g, H: h, Aux: aux, V: v, T: t, Wall: w})
	r.mu.Unlock()
}

// Bump records LOG_{g∩h}.bumpAndLock(m, k).
func (r *Recorder) Bump(p groups.Process, m msg.ID, g, h groups.GroupID, k int, t failure.Time) {
	if r == nil {
		return
	}
	w := r.wallNow()
	r.mu.Lock()
	r.record(Event{Kind: EvBump, P: p, M: m, G: g, H: h, V: k, T: t, Wall: w})
	r.mu.Unlock()
}

// Propose records a CONS_{m,f} proposal of value v by p.
func (r *Recorder) Propose(p groups.Process, m msg.ID, g groups.GroupID, v int, t failure.Time) {
	if r == nil {
		return
	}
	w := r.wallNow()
	r.mu.Lock()
	r.record(Event{Kind: EvPropose, P: p, M: m, G: g, H: g, V: v, T: t, Wall: w})
	r.mu.Unlock()
}

// Decide records the decision of CONS_{m,f} as learnt by p.
func (r *Recorder) Decide(p groups.Process, m msg.ID, g groups.GroupID, v int, t failure.Time) {
	if r == nil {
		return
	}
	w := r.wallNow()
	r.mu.Lock()
	r.record(Event{Kind: EvDecide, P: p, M: m, G: g, H: g, V: v, T: t, Wall: w})
	r.mu.Unlock()
}

// FastDelivery counts one delivery that took the Generic variant's fast
// path — the message commuted with everything, so no pair log, consensus or
// stabilisation was consulted.
func (r *Recorder) FastDelivery() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.fastDeliveries++
	r.mu.Unlock()
}

// NoteClass counts one multicast tagged with the given conflict class.
func (r *Recorder) NoteClass(class uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.classes[class]++
	r.mu.Unlock()
}

// Coordination records one coordination operation on the log of pair,
// charged to every member of set (the adopt-commit participants g∩h on the
// fast path, the hosting group on the consensus fallback — Proposition 47's
// footprint, counted). contended marks the fallback.
func (r *Recorder) Coordination(pair Pair, set groups.ProcSet, contended bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	pc, ok := r.coord[pair]
	if !ok {
		pc = &pairCoord{perProc: make(map[groups.Process]int64)}
		r.coord[pair] = pc
	}
	pc.ops++
	if contended {
		pc.contended++
	}
	for _, p := range set.Members() {
		pc.perProc[p]++
	}
	r.mu.Unlock()
}

// Events returns a snapshot of the event timeline.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// ---------------------------------------------------------------------------
// Counter blocks bumped by the live substrate's hot paths.

// PaxosCounters count the consensus substrate's work. Rounds are the full
// two-phase synod rounds; FastRounds are the Multi-Paxos steady-state
// rounds (phase 1 elided under a leader lease). Probes are anti-entropy
// broadcasts for possibly-dropped decide messages. RespDrops count
// proposer responses lost to a full response channel; RespStale counts
// leftovers from prior rounds drained at round start.
type PaxosCounters struct {
	Proposals         atomic.Int64
	Rounds            atomic.Int64
	RoundFailures     atomic.Int64
	FastRounds        atomic.Int64
	FastRoundFailures atomic.Int64
	WindowRounds      atomic.Int64
	WindowFailures    atomic.Int64
	WindowDepthPeak   atomic.Int64
	LeasesAcquired    atomic.Int64
	LeasesLost        atomic.Int64
	Decisions         atomic.Int64
	Probes            atomic.Int64
	RespDrops         atomic.Int64
	RespStale         atomic.Int64
}

// IncProposal counts one Propose entry (nil-safe, like every Inc method).
func (c *PaxosCounters) IncProposal() {
	if c != nil {
		c.Proposals.Add(1)
	}
}

// IncRound counts one prepare/accept round attempt.
func (c *PaxosCounters) IncRound() {
	if c != nil {
		c.Rounds.Add(1)
	}
}

// IncRoundFailure counts one failed round (deadline or refusal).
func (c *PaxosCounters) IncRoundFailure() {
	if c != nil {
		c.RoundFailures.Add(1)
	}
}

// IncDecision counts one decision learnt for the first time.
func (c *PaxosCounters) IncDecision() {
	if c != nil {
		c.Decisions.Add(1)
	}
}

// IncProbe counts one anti-entropy decision probe broadcast.
func (c *PaxosCounters) IncProbe() {
	if c != nil {
		c.Probes.Add(1)
	}
}

// IncFastRound counts one phase-1-elided accept round under a lease.
func (c *PaxosCounters) IncFastRound() {
	if c != nil {
		c.FastRounds.Add(1)
	}
}

// IncFastRoundFailure counts one fast round that fell back to the full
// protocol (NACK, deadline, or concurrent decision).
func (c *PaxosCounters) IncFastRoundFailure() {
	if c != nil {
		c.FastRoundFailures.Add(1)
	}
}

// IncWindowRound counts one windowed (pipelined) accept round fired.
func (c *PaxosCounters) IncWindowRound() {
	if c != nil {
		c.WindowRounds.Add(1)
	}
}

// IncWindowRoundFailure counts one windowed round that ended without a
// decision (deadline or NACK) — a potential hole the caller repairs.
func (c *PaxosCounters) IncWindowRoundFailure() {
	if c != nil {
		c.WindowFailures.Add(1)
	}
}

// NoteWindowDepth records the observed outstanding-round depth of one
// realm, keeping the run's peak.
func (c *PaxosCounters) NoteWindowDepth(d int64) {
	if c == nil {
		return
	}
	for {
		cur := c.WindowDepthPeak.Load()
		if d <= cur || c.WindowDepthPeak.CompareAndSwap(cur, d) {
			return
		}
	}
}

// IncLeaseAcquired counts one range prepare installing a proposer lease.
func (c *PaxosCounters) IncLeaseAcquired() {
	if c != nil {
		c.LeasesAcquired.Add(1)
	}
}

// IncLeaseLost counts one lease invalidated by an observed higher ballot.
func (c *PaxosCounters) IncLeaseLost() {
	if c != nil {
		c.LeasesLost.Add(1)
	}
}

// IncRespDrop counts one proposer response dropped on a full channel.
func (c *PaxosCounters) IncRespDrop() {
	if c != nil {
		c.RespDrops.Add(1)
	}
}

// IncRespStale counts one leftover response drained at round start.
func (c *PaxosCounters) IncRespStale() {
	if c != nil {
		c.RespStale.Add(1)
	}
}

// ReplogCounters count the replicated-log substrate's work. Batches are
// consensus slots proposed by the batching submit loop; BatchedOps is the
// total operations those slots carried (BatchedOps/Batches is the mean
// batch size, the lever that amortises one accept round over many
// multicasts).
type ReplogCounters struct {
	Applies    atomic.Int64
	Submits    atomic.Int64
	Batches    atomic.Int64
	BatchedOps atomic.Int64
	FwdOps     atomic.Int64
	RemoteOps  atomic.Int64
}

// AddBatch counts one batch of n operations fired at a consensus slot.
func (c *ReplogCounters) AddBatch(n int) {
	if c != nil {
		c.Batches.Add(1)
		c.BatchedOps.Add(int64(n))
	}
}

// IncApply counts one operation applied to a local replica.
func (c *ReplogCounters) IncApply() {
	if c != nil {
		c.Applies.Add(1)
	}
}

// IncSubmit counts one operation funnelled through consensus.
func (c *ReplogCounters) IncSubmit() {
	if c != nil {
		c.Submits.Add(1)
	}
}

// AddFwd counts n operations forwarded to a realm's leaseholder.
func (c *ReplogCounters) AddFwd(n int) {
	if c != nil {
		c.FwdOps.Add(int64(n))
	}
}

// AddRemote counts n forwarded operations accepted into the local batcher.
func (c *ReplogCounters) AddRemote(n int) {
	if c != nil {
		c.RemoteOps.Add(int64(n))
	}
}

// SchedCounters count the stepping scheduler's work: how often nodes woke
// (split by cause), how many guard scan passes they ran, how many Step calls
// the change-vector check short-circuited without scanning, and how many
// protocol actions fired. Scans/Actions is the scan efficiency of the ready
// set; TimerWakeups alongside SkippedScans is the idle-CPU proxy — an
// event-driven system shows timer wakeups that skip their scan, a polling
// one shows scans growing with wall time regardless of traffic.
type SchedCounters struct {
	NotifyWakeups atomic.Int64
	TimerWakeups  atomic.Int64
	Scans         atomic.Int64
	SkippedScans  atomic.Int64
	Actions       atomic.Int64
	// GuardVisits counts the predecessor entries the guards of Algorithm 1
	// examined (log entries before a message, L_g entries before an outbox
	// head). Per delivery it must not grow with the length of the run: the
	// guards start at a delivered frontier, not at the first entry.
	GuardVisits atomic.Int64
}

// IncNotifyWakeup counts one node wakeup caused by a change notification.
func (c *SchedCounters) IncNotifyWakeup() {
	if c != nil {
		c.NotifyWakeups.Add(1)
	}
}

// IncTimerWakeup counts one safety-net timer wakeup.
func (c *SchedCounters) IncTimerWakeup() {
	if c != nil {
		c.TimerWakeups.Add(1)
	}
}

// IncScan counts one guard scan pass over a node's ready set.
func (c *SchedCounters) IncScan() {
	if c != nil {
		c.Scans.Add(1)
	}
}

// IncSkippedScan counts one Step short-circuited by the change-vector check.
func (c *SchedCounters) IncSkippedScan() {
	if c != nil {
		c.SkippedScans.Add(1)
	}
}

// IncAction counts one protocol action fired.
func (c *SchedCounters) IncAction() {
	if c != nil {
		c.Actions.Add(1)
	}
}

// AddGuardVisits counts n predecessor entries examined by one guard.
func (c *SchedCounters) AddGuardVisits(n int64) {
	if c != nil && n != 0 {
		c.GuardVisits.Add(n)
	}
}

// WALCounters count the durable-storage work of the live substrate's
// write-ahead logs: records and bytes appended, group-commit syncs
// (Syncs/Appends is the commit-batching ratio), segment rotations, and the
// records/time recovered by replay on restart.
type WALCounters struct {
	Appends          atomic.Int64
	Bytes            atomic.Int64
	Syncs            atomic.Int64
	Rotations        atomic.Int64
	RecoveredRecords atomic.Int64
	RecoveryNanos    atomic.Int64
}

// AddAppend counts one appended record of n payload bytes.
func (c *WALCounters) AddAppend(n int) {
	if c != nil {
		c.Appends.Add(1)
		c.Bytes.Add(int64(n))
	}
}

// IncSync counts one group-commit durability barrier.
func (c *WALCounters) IncSync() {
	if c != nil {
		c.Syncs.Add(1)
	}
}

// IncRotation counts one segment rotation.
func (c *WALCounters) IncRotation() {
	if c != nil {
		c.Rotations.Add(1)
	}
}

// AddRecovery counts a replay of n records taking d of wall time.
func (c *WALCounters) AddRecovery(n int64, d time.Duration) {
	if c != nil {
		c.RecoveredRecords.Add(n)
		c.RecoveryNanos.Add(int64(d))
	}
}

// NetCounters count transport traffic per directed link. They are owned by
// the transport (internal/net allocates one per Network) and read through
// NetReporter at report time.
type NetCounters struct {
	n        int
	packets  []atomic.Int64 // from*n + to
	bytes    []atomic.Int64
	overflow atomic.Int64
}

// NewNetCounters builds counters for n processes.
func NewNetCounters(n int) *NetCounters {
	return &NetCounters{
		n:       n,
		packets: make([]atomic.Int64, n*n),
		bytes:   make([]atomic.Int64, n*n),
	}
}

// Sent counts one packet of approximately size bytes on from→to.
func (c *NetCounters) Sent(from, to groups.Process, size int) {
	if c == nil {
		return
	}
	i := int(from)*c.n + int(to)
	if i < 0 || i >= len(c.packets) {
		return
	}
	c.packets[i].Add(1)
	c.bytes[i].Add(int64(size))
}

// Overflow counts one packet dropped on a full inbox.
func (c *NetCounters) Overflow() {
	if c != nil {
		c.overflow.Add(1)
	}
}

// Report snapshots the counters into a NetReport.
func (c *NetCounters) Report() *NetReport {
	if c == nil {
		return nil
	}
	r := &NetReport{
		PerProcessSent: make([]int64, c.n),
		PerProcessRecv: make([]int64, c.n),
		OverflowDrops:  c.overflow.Load(),
	}
	for f := 0; f < c.n; f++ {
		for t := 0; t < c.n; t++ {
			i := f*c.n + t
			pk := c.packets[i].Load()
			if pk == 0 {
				continue
			}
			by := c.bytes[i].Load()
			r.Packets += pk
			r.Bytes += by
			r.PerProcessSent[f] += pk
			r.PerProcessRecv[t] += pk
			r.PerLink = append(r.PerLink, LinkReport{
				From: groups.Process(f), To: groups.Process(t), Packets: pk, Bytes: by,
			})
		}
	}
	return r
}

// NetReporter is implemented by transports that expose traffic counters
// (internal/net.Network natively, internal/chaos.Chaos by delegation).
type NetReporter interface {
	NetReport() *NetReport
}

// WireCounters count the socket-level work of a real transport
// (internal/wire): real encoded bytes rather than EstimateSize guesses,
// plus the connection-management events the in-memory fabric has no notion
// of. One instance may be shared by several TCP nodes (the loopback fabric
// aggregates all of a run's sockets into one report).
type WireCounters struct {
	BytesOut      atomic.Int64
	BytesIn       atomic.Int64
	FramesEncoded atomic.Int64
	FramesDecoded atomic.Int64
	Dials         atomic.Int64
	Reconnects    atomic.Int64
	DecodeErrors  atomic.Int64
	ShortReads    atomic.Int64
	QueueDrops    atomic.Int64
	// WriteDrops counts frames lost inside a write loop — a failed socket
	// write or a redial discarding the in-flight frame. Send-side queue
	// overflows are QueueDrops; without this counter, write-side losses
	// were only visible as Reconnects and chaos bench rows could not
	// attribute lost frames.
	WriteDrops atomic.Int64
	// Flushes/FlushedFrames count the write loops' coalescing: one flush
	// is one syscall-level write of ≥1 queued frames. FlushedFrames/Flushes
	// is the mean coalescing factor.
	Flushes       atomic.Int64
	FlushedFrames atomic.Int64
}

// Report snapshots the counters into a WireReport.
func (c *WireCounters) Report() *WireReport {
	if c == nil {
		return nil
	}
	return &WireReport{
		BytesOut:      c.BytesOut.Load(),
		BytesIn:       c.BytesIn.Load(),
		FramesEncoded: c.FramesEncoded.Load(),
		FramesDecoded: c.FramesDecoded.Load(),
		Dials:         c.Dials.Load(),
		Reconnects:    c.Reconnects.Load(),
		DecodeErrors:  c.DecodeErrors.Load(),
		ShortReads:    c.ShortReads.Load(),
		QueueDrops:    c.QueueDrops.Load(),
		WriteDrops:    c.WriteDrops.Load(),
		Flushes:       c.Flushes.Load(),
		FlushedFrames: c.FlushedFrames.Load(),
	}
}

// WireReporter is implemented by transports that run over real sockets
// (internal/wire.TCP, internal/wire.Fabric).
type WireReporter interface {
	WireReport() *WireReport
}

// sizeCache memoises per-type wire-size estimates.
var sizeCache sync.Map // reflect.Type → int

// EstimateSize approximates the wire footprint of an in-memory packet: a
// fixed header (from/to/type plus framing) plus the body's in-memory struct
// size. It is an estimate — variable-length fields inside the body are not
// chased — but it is consistent across runs, which is what comparing
// configurations needs. The TCP fabric (internal/wire) does not use it: it
// counts the real encoded frame bytes.
func EstimateSize(body any) int {
	const header = 16
	if body == nil {
		return header
	}
	t := reflect.TypeOf(body)
	if sz, ok := sizeCache.Load(t); ok {
		return header + sz.(int)
	}
	sz := int(t.Size())
	sizeCache.Store(t, sz)
	return header + sz
}
