// Package obs is the run-level observability layer shared by both backends:
// a lock-cheap recorder of structured run events (multicast issued, log
// append, bump-and-lock, consensus propose/decide, delivery) with
// per-message latency samples and per-pair coordination counts, plus the
// counter blocks the live substrate bumps on its hot paths (paxos rounds and
// leases, replog batches, scheduler wakeups, WAL syncs, wire frames, chaos
// injections — one declaration each, see "Counter blocks" below) and the
// transport's per-link packet/byte matrix.
//
// The Sim backend stamps events in virtual time, the Live backend in wall
// time, so one RunReport type (report.go) carries delivery-latency
// histograms, per-process footprints and per-pair g∩h coordination counts
// for both substrates. That makes Proposition 47's "contention-free
// coordination stays inside g∩h" an observable quantity rather than only a
// checker verdict: in a contention-free run the coordination count of every
// process outside g∩h is zero.
//
// Cost discipline: a counter bump is one atomic add on a plain int64 field;
// the event timeline takes one short critical section per recorded event and
// is capped (overflow is counted, never silent). A nil *Recorder is a valid
// no-op recorder — every event method is nil-safe, and its counter blocks
// are a shared discard block nothing reads — so call sites never test for
// it.
package obs

import (
	"errors"
	"reflect"
	"strings"
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

var kindNames = [...]string{"?", "multicast", "append", "bump", "propose", "decide", "deliver"}

// String renders the kind for timelines.
func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		k = 0
	}
	return kindNames[k]
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
}

// maxEvents caps the timeline; overflow increments a counter
// (RunReport.EventsTruncated) instead of growing without bound.
const maxEvents = 1 << 20

// Recorder collects one run's observability. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops).
type Recorder struct {
	// The counter blocks this recorder hands out (the transports own the
	// wire and chaos blocks). They come first: a struct's first word is
	// 64-bit aligned on every platform, which atomics on plain int64 need.
	paxos  PaxosCounters
	replog ReplogCounters
	wal    WALCounters
	sched  SchedCounters

	level Level
	epoch time.Time // zero ⇒ no wall stamps

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

// discard is where a nil recorder's layers count: written, never read.
var discard Recorder

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
	r := &Recorder{
		level:   o.Level,
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

// orDiscard is r, or the discard recorder when r is nil, so the block
// accessors below never return nil and call sites never test for it.
func (r *Recorder) orDiscard() *Recorder {
	if r == nil {
		return &discard
	}
	return r
}

// Paxos returns the block the consensus substrate counts into.
func (r *Recorder) Paxos() *PaxosCounters { return &r.orDiscard().paxos }

// Replog returns the block the replicated logs count into.
func (r *Recorder) Replog() *ReplogCounters { return &r.orDiscard().replog }

// WAL returns the block the write-ahead logs count into.
func (r *Recorder) WAL() *WALCounters { return &r.orDiscard().wal }

// Sched returns the block the stepping scheduler counts into.
func (r *Recorder) Sched() *SchedCounters { return &r.orDiscard().sched }

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
	if len(r.events) >= maxEvents {
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

// event records one timeline event that feeds no other tally.
func (r *Recorder) event(e Event) {
	if r == nil {
		return
	}
	e.Wall = r.wallNow()
	r.mu.Lock()
	r.record(e)
	r.mu.Unlock()
}

// Append records LOG_{g∩h}.append (g == h for a group log). aux is the
// datum kind, v the resulting position when known.
func (r *Recorder) Append(p groups.Process, m msg.ID, g, h groups.GroupID, aux uint8, v int, t failure.Time) {
	r.event(Event{Kind: EvAppend, P: p, M: m, G: g, H: h, Aux: aux, V: v, T: t})
}

// Bump records LOG_{g∩h}.bumpAndLock(m, k).
func (r *Recorder) Bump(p groups.Process, m msg.ID, g, h groups.GroupID, k int, t failure.Time) {
	r.event(Event{Kind: EvBump, P: p, M: m, G: g, H: h, V: k, T: t})
}

// Propose records a CONS_{m,f} proposal of value v by p.
func (r *Recorder) Propose(p groups.Process, m msg.ID, g groups.GroupID, v int, t failure.Time) {
	r.event(Event{Kind: EvPropose, P: p, M: m, G: g, H: g, V: v, T: t})
}

// Decide records the decision of CONS_{m,f} as learnt by p.
func (r *Recorder) Decide(p groups.Process, m msg.ID, g groups.GroupID, v int, t failure.Time) {
	r.event(Event{Kind: EvDecide, P: p, M: m, G: g, H: g, V: v, T: t})
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

// ---------------------------------------------------------------------------
// Counter blocks. Each per-layer counter set is declared exactly once: a
// struct whose fields are all int64 (uint64 in the chaos block, whose type
// predates this package), each with a JSON tag. That one struct
// is both the live block a layer bumps on its hot path — through Inc, Add
// and Max, which are sync/atomic operations on the field — and the section
// RunReport carries (a Snapshot of the live block). Adding a counter is one
// field here and one call site in the layer: Snapshot, the section-present
// rule and RunReport.String find it by walking the struct.
//
// Every counter is a sum except PaxosCounters.WindowDepthPeak, a high-water
// mark kept with Max. A block's zero value is ready to use, so a layer
// built without an observer counts into a private new(XCounters).

// Inc adds one to a counter.
func Inc[T int64 | uint64](c *T) { Add(c, 1) }

// Add adds n to a counter.
func Add[T int64 | uint64](c *T, n T) {
	switch p := any(c).(type) {
	case *int64:
		atomic.AddInt64(p, int64(n))
	case *uint64:
		atomic.AddUint64(p, uint64(n))
	}
}

// Max raises a high-water-mark counter to v if v is above it.
func Max(c *int64, v int64) {
	for {
		cur := atomic.LoadInt64(c)
		if v <= cur || atomic.CompareAndSwapInt64(c, cur, v) {
			return
		}
	}
}

// walk visits every counter of a block (a pointer to a struct of counter
// fields; a nil pointer has none) in declaration order, with the field's
// index, its JSON name and its value, loaded atomically. It is reflective
// and runs at report time only, never on a hot path.
func walk(block any, fn func(i int, name string, v int64)) {
	p := reflect.ValueOf(block)
	if p.IsNil() {
		return
	}
	s := p.Elem()
	for i := 0; i < s.NumField(); i++ {
		name, _, _ := strings.Cut(s.Type().Field(i).Tag.Get("json"), ",")
		switch p := s.Field(i).Addr().Interface().(type) {
		case *int64:
			fn(i, name, atomic.LoadInt64(p))
		case *uint64:
			fn(i, name, int64(atomic.LoadUint64(p)))
		}
	}
}

// Snapshot copies a live block for a report. Each counter is loaded
// atomically, so every value is one the counter really held during the
// call; writers are not stopped, so the fields are not one consistent cut.
func Snapshot[T any](live *T) *T {
	out := new(T)
	dst := reflect.ValueOf(out).Elem()
	walk(live, func(i int, _ string, v int64) {
		if f := dst.Field(i); f.CanInt() {
			f.SetInt(v)
		} else {
			f.SetUint(uint64(v))
		}
	})
	return out
}

// present applies the section-present rule to a snapshot: a layer none of
// whose counters moved has no section in the report (nil), rather than a
// section of zeros.
func present[T any](s *T) *T {
	moved := false
	walk(s, func(_ int, _ string, v int64) { moved = moved || v != 0 })
	if !moved {
		return nil
	}
	return s
}

// perUnit is num/den, or 0 when there were no units to divide by.
func perUnit(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// PaxosCounters count the consensus substrate's work, by the entry point
// that started a round. Rounds are the full two-phase synod rounds of
// Propose; FastRounds its leased rounds (phase 1 elided under a leader
// lease, waited for); WindowRounds the leased rounds ProposeWindowed fired
// without waiting, and WindowDepthPeak the deepest outstanding window of
// any realm. Each *Failures counter is the rounds of its kind that ended
// without a decision, counted where a phase ends. The lease counters record
// fast-path churn (acquisitions via range prepare, invalidations on an
// observed higher ballot). Probes are anti-entropy broadcasts for
// possibly-dropped decide messages. RespStale counts phase responses that
// found neither a round outstanding at their instance nor a local decision
// of it — the votes of a round that failed, ≈ 0 on a healthy run; the late
// third ack of a decided slot is dropped uncounted.
type PaxosCounters struct {
	Proposals         int64 `json:"proposals"`
	Rounds            int64 `json:"rounds"`
	RoundFailures     int64 `json:"round_failures"`
	FastRounds        int64 `json:"fast_rounds"`
	FastRoundFailures int64 `json:"fast_round_failures"`
	WindowRounds      int64 `json:"window_rounds"`
	WindowFailures    int64 `json:"window_failures"`
	WindowDepthPeak   int64 `json:"window_depth_peak"`
	LeasesAcquired    int64 `json:"leases_acquired"`
	LeasesLost        int64 `json:"leases_lost"`
	Decisions         int64 `json:"decisions"`
	Probes            int64 `json:"probes"`
	RespStale         int64 `json:"resp_stale"`
}

// ReplogCounters count the replicated-log substrate's work: operations
// funnelled through consensus (Submits) and applied to a local replica
// (Applies), consensus slots proposed by the batching submit loop (Batches)
// and the operations those slots carried (BatchedOps), operations forwarded
// to a realm's leaseholder (FwdOps) and forwarded operations accepted into
// the local batcher (RemoteOps); anti-entropy probes sent on evidence that
// the awaited slot exists (Hedges) and the idle backstop's trickle
// (IdleProbes) — together the paxos block's Probes of a live run.
type ReplogCounters struct {
	Applies    int64 `json:"applies"`
	Submits    int64 `json:"submits"`
	Batches    int64 `json:"batches"`
	BatchedOps int64 `json:"batched_ops"`
	FwdOps     int64 `json:"fwd_ops,omitempty"`
	RemoteOps  int64 `json:"remote_ops,omitempty"`
	Hedges     int64 `json:"hedges,omitempty"`
	IdleProbes int64 `json:"idle_probes,omitempty"`
}

// MeanBatchOps is the mean operations per proposed batch — the lever that
// amortises one accept round over many multicasts (0 on a nil block or when
// the run proposed no batches).
func (c *ReplogCounters) MeanBatchOps() float64 {
	if c == nil {
		return 0
	}
	return perUnit(c.BatchedOps, c.Batches)
}

// SchedCounters count the stepping scheduler's work: how often nodes woke
// (split by cause), how many guard scan passes they ran (one per Step) and
// how many protocol actions fired. Scans/Actions is the scan efficiency of
// the ready set; a polling scheduler would show timer wakeups and scans
// growing with wall time regardless of traffic.
type SchedCounters struct {
	NotifyWakeups int64 `json:"notify_wakeups"`
	TimerWakeups  int64 `json:"timer_wakeups"`
	Scans         int64 `json:"scans"`
	// SkippedScans is always 0: every Step scans, and nothing counts it any
	// more. It stays for the readers that still report it.
	SkippedScans int64 `json:"skipped_scans"`
	Actions      int64 `json:"actions"`
	// GuardVisits counts the predecessor entries the guards of Algorithm 1
	// examined (log entries before a message, L_g entries before an outbox
	// head). Per delivery it must not grow with the length of the run: the
	// guards start at a delivered frontier, not at the first entry.
	GuardVisits int64 `json:"guard_visits"`
}

// WALCounters count the durable-storage work of the live substrate's
// write-ahead logs: records and payload bytes appended, group-commit
// durability barriers (Syncs/Appends is the commit-batching ratio), segment
// rotations, and the records/time recovered by replay on restart.
type WALCounters struct {
	Appends          int64 `json:"appends"`
	Bytes            int64 `json:"bytes"`
	Syncs            int64 `json:"syncs"`
	Rotations        int64 `json:"rotations,omitempty"`
	RecoveredRecords int64 `json:"recovered_records,omitempty"`
	RecoveryNanos    int64 `json:"recovery_nanos,omitempty"`
}

// BytesPerAppend is the mean record payload size (0 on a nil block or with
// no appends).
func (c *WALCounters) BytesPerAppend() float64 {
	if c == nil {
		return 0
	}
	return perUnit(c.Bytes, c.Appends)
}

// WireCounters count the socket-level work of a real transport
// (internal/wire): real encoded frame bytes rather than EstimateSize
// guesses, plus the connection-management events (dials, reconnects, short
// reads) the in-memory fabric has no notion of. One instance may be shared
// by several TCP nodes (the loopback fabric aggregates all of a run's
// sockets into one report).
type WireCounters struct {
	BytesOut      int64 `json:"bytes_out"`
	BytesIn       int64 `json:"bytes_in"`
	FramesEncoded int64 `json:"frames_encoded"`
	FramesDecoded int64 `json:"frames_decoded"`
	Dials         int64 `json:"dials"`
	Reconnects    int64 `json:"reconnects"`
	DecodeErrors  int64 `json:"decode_errors"`
	ShortReads    int64 `json:"short_reads"`
	// QueueDrops are send-side queue overflows; WriteDrops are frames lost
	// inside a write loop — a failed socket write or a redial discarding the
	// in-flight frame — which would otherwise show only as Reconnects.
	QueueDrops int64 `json:"queue_drops"`
	WriteDrops int64 `json:"write_drops"`
	// Flushes/FlushedFrames count the write loops' coalescing: one flush is
	// one syscall-level write of ≥1 queued frames.
	Flushes       int64 `json:"flushes"`
	FlushedFrames int64 `json:"flushed_frames"`
}

// FramesPerFlush is the mean write-coalescing factor (0 on a nil block or
// when the transport never flushed).
func (c *WireCounters) FramesPerFlush() float64 {
	if c == nil {
		return 0
	}
	return perUnit(c.FlushedFrames, c.Flushes)
}

// ChaosCounters count what the nemesis (internal/chaos, where this type is
// chaos.Stats) did to the traffic, by cause.
type ChaosCounters struct {
	Forwarded        uint64 `json:"forwarded"`         // packets handed to the inner transport
	Duplicated       uint64 `json:"duplicated"`        // extra copies injected
	Delayed          uint64 `json:"delayed"`           // packets that took a delay path
	DroppedRandom    uint64 `json:"dropped_random"`    // lost to the Drop probability
	DroppedPartition uint64 `json:"dropped_partition"` // lost to an active partition
	DroppedDown      uint64 `json:"dropped_down"`      // lost because an endpoint was down
	DroppedOverflow  uint64 `json:"dropped_overflow"`  // lost on a full delay-pipe queue
}

// Dropped sums all loss causes.
func (c ChaosCounters) Dropped() uint64 {
	return c.DroppedRandom + c.DroppedPartition + c.DroppedDown + c.DroppedOverflow
}

// Injections sums everything the nemesis actively did to the traffic (0 on
// a nil block).
func (c *ChaosCounters) Injections() uint64 {
	if c == nil {
		return 0
	}
	return c.Duplicated + c.Delayed + c.Dropped()
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
	i := int(from)*c.n + int(to)
	c.packets[i].Add(1)
	c.bytes[i].Add(int64(size))
}

// Overflow counts one packet dropped on a full inbox.
func (c *NetCounters) Overflow() { c.overflow.Add(1) }

// Report snapshots the counters into a NetReport.
func (c *NetCounters) Report() *NetReport {
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

// WireReporter is implemented by transports that run over real sockets
// (internal/wire.TCP and Fabric natively, internal/chaos.Chaos by
// delegation).
type WireReporter interface {
	WireReport() *WireCounters
}

// ChaosReporter is implemented by transports that inject faults
// (internal/chaos.Chaos).
type ChaosReporter interface {
	InjectionReport() *ChaosCounters
}

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
	return header + int(reflect.TypeOf(body).Size())
}
