package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/groups"
)

// LatencySummary is a quantile summary of a latency distribution. Units are
// whatever the samples carried: scheduler ticks for TickLatency, milliseconds
// for WallLatency.
type LatencySummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// P999 is the 99.9th percentile — the open-loop tail the SLO rows gate
	// on; with fewer than ~1000 samples it degenerates towards Max.
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// Summarise computes the summary of a sample set (zero value when empty).
// The input is not modified.
func Summarise(samples []float64) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	q := func(p float64) float64 {
		// Nearest-rank on the sorted samples.
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return LatencySummary{
		Count: len(s),
		Mean:  sum / float64(len(s)),
		P50:   q(0.50),
		P90:   q(0.90),
		P99:   q(0.99),
		P999:  q(0.999),
		Max:   s[len(s)-1],
	}
}

// PairCoordination is the coordination footprint of one log: how many
// operations it served, how many fell back to consensus, and how many
// coordination steps each process was charged. Proposition 47 as a metric:
// in a contention-free run every process outside g∩h counts zero.
type PairCoordination struct {
	A         groups.GroupID           `json:"a"`
	B         groups.GroupID           `json:"b"`
	Ops       int64                    `json:"ops"`
	Contended int64                    `json:"contended"`
	PerProc   map[groups.Process]int64 `json:"per_proc"`
}

// LinkReport is the traffic of one directed link.
type LinkReport struct {
	From    groups.Process `json:"from"`
	To      groups.Process `json:"to"`
	Packets int64          `json:"packets"`
	Bytes   int64          `json:"bytes"`
}

// NetReport is the transport traffic of a live run.
type NetReport struct {
	Packets        int64        `json:"packets"`
	Bytes          int64        `json:"bytes"`
	OverflowDrops  int64        `json:"overflow_drops"`
	PerProcessSent []int64      `json:"per_process_sent"`
	PerProcessRecv []int64      `json:"per_process_recv"`
	PerLink        []LinkReport `json:"per_link,omitempty"`
}

// WireReport is the socket-level traffic of a run over a real transport
// (internal/wire). Unlike NetReport's estimated sizes, the byte counts here
// are real encoded frame bytes; the connection counters (dials, reconnects,
// short reads) only exist where there are connections to manage.
type WireReport struct {
	BytesOut      int64 `json:"bytes_out"`
	BytesIn       int64 `json:"bytes_in"`
	FramesEncoded int64 `json:"frames_encoded"`
	FramesDecoded int64 `json:"frames_decoded"`
	Dials         int64 `json:"dials"`
	Reconnects    int64 `json:"reconnects"`
	DecodeErrors  int64 `json:"decode_errors"`
	ShortReads    int64 `json:"short_reads"`
	QueueDrops    int64 `json:"queue_drops"`
	WriteDrops    int64 `json:"write_drops"`
	Flushes       int64 `json:"flushes"`
	FlushedFrames int64 `json:"flushed_frames"`
}

// FramesPerFlush is the mean write-coalescing factor (0 when the transport
// never flushed, e.g. a single-process in-memory run).
func (w *WireReport) FramesPerFlush() float64 {
	if w == nil || w.Flushes == 0 {
		return 0
	}
	return float64(w.FlushedFrames) / float64(w.Flushes)
}

// PaxosReport is the consensus substrate's work in a live run. Rounds are
// full two-phase synod rounds; FastRounds the phase-1-elided accepts the
// Multi-Paxos lease enables; the lease counters record fast-path churn
// (acquisitions via range prepare, invalidations on observed higher
// ballots). RespDrops/RespStale account proposer-response losses that the
// old implementation discarded silently.
type PaxosReport struct {
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
	RespDrops         int64 `json:"resp_drops"`
	RespStale         int64 `json:"resp_stale"`
}

// ReplogReport is the replicated-log substrate's work in a live run.
type ReplogReport struct {
	Applies    int64 `json:"applies"`
	Submits    int64 `json:"submits"`
	Batches    int64 `json:"batches"`
	BatchedOps int64 `json:"batched_ops"`
	FwdOps     int64 `json:"fwd_ops,omitempty"`
	RemoteOps  int64 `json:"remote_ops,omitempty"`
}

// MeanBatchOps is the mean operations per proposed batch (0 when the run
// proposed no batches).
func (r *ReplogReport) MeanBatchOps() float64 {
	if r == nil || r.Batches == 0 {
		return 0
	}
	return float64(r.BatchedOps) / float64(r.Batches)
}

// ChaosReport mirrors the nemesis fault counters when the run's transport
// was chaos-wrapped.
type ChaosReport struct {
	Forwarded        uint64 `json:"forwarded"`
	Duplicated       uint64 `json:"duplicated"`
	Delayed          uint64 `json:"delayed"`
	DroppedRandom    uint64 `json:"dropped_random"`
	DroppedPartition uint64 `json:"dropped_partition"`
	DroppedDown      uint64 `json:"dropped_down"`
	DroppedOverflow  uint64 `json:"dropped_overflow"`
}

// Injections sums everything the nemesis actively did to the traffic.
func (c *ChaosReport) Injections() uint64 {
	if c == nil {
		return 0
	}
	return c.Duplicated + c.Delayed + c.DroppedRandom + c.DroppedPartition + c.DroppedDown + c.DroppedOverflow
}

// ChaosReporter is implemented by transports that inject faults
// (internal/chaos.Chaos).
type ChaosReporter interface {
	InjectionReport() *ChaosReport
}

// ClassCount is the population of one conflict class across the run's
// multicasts.
type ClassCount struct {
	Class uint64 `json:"class"`
	Count int64  `json:"count"`
}

// ConflictReport is the Generic variant's observability: how many deliveries
// skipped the g∩h coordination entirely, and how the multicasts distributed
// over conflict classes. Class 0 is the conflicts-with-all default, ^0 the
// commutes-with-all tag.
type ConflictReport struct {
	FastDeliveries int64        `json:"fast_deliveries"`
	Classes        []ClassCount `json:"classes,omitempty"`
}

// SchedReport is the stepping scheduler's work in a run: wakeups by cause,
// guard scan passes, Step calls short-circuited without a scan, and protocol
// actions fired. WakeupsPerDelivery and StepsPerDelivery (computed against
// the run's delivery count) are the event-efficiency of the hot path;
// TimerWakeups with SkippedScans high relative to Scans is the signature of
// an idle system that sleeps instead of polling.
type SchedReport struct {
	NotifyWakeups int64 `json:"notify_wakeups"`
	TimerWakeups  int64 `json:"timer_wakeups"`
	Scans         int64 `json:"scans"`
	SkippedScans  int64 `json:"skipped_scans"`
	Actions       int64 `json:"actions"`
	GuardVisits   int64 `json:"guard_visits"`
}

// WALReport is the durable-storage footprint of a live run: records and
// payload bytes appended to the write-ahead logs, group-commit durability
// barriers (Syncs/Appends is the commit-batching ratio), segment rotations,
// and the replay work done by recovery on restart.
type WALReport struct {
	Appends          int64 `json:"appends"`
	Bytes            int64 `json:"bytes"`
	Syncs            int64 `json:"syncs"`
	Rotations        int64 `json:"rotations,omitempty"`
	RecoveredRecords int64 `json:"recovered_records,omitempty"`
	RecoveryNanos    int64 `json:"recovery_nanos,omitempty"`
}

// BytesPerAppend is the mean record payload size (0 with no appends).
func (w *WALReport) BytesPerAppend() float64 {
	if w == nil || w.Appends == 0 {
		return 0
	}
	return float64(w.Bytes) / float64(w.Appends)
}

// RunReport is one run's observability, for either backend. Quantities a
// backend does not measure are reported as absent (nil pointers, Accounted
// flags) and surface as ErrNotAccounted through the accessors — never as
// fabricated zeros.
type RunReport struct {
	// Backend is "sim" or "live".
	Backend   string `json:"backend"`
	Processes int    `json:"processes"`
	Groups    int    `json:"groups"`
	// Ticks is the final clock: virtual time under Sim, ~1ms ticks under
	// Live.
	Ticks int64 `json:"ticks"`
	// Wall is the run's wall-clock span (zero under Sim).
	Wall time.Duration `json:"wall"`

	Multicasts int64 `json:"multicasts"`
	Deliveries int64 `json:"deliveries"`

	// TickLatency summarises per-delivery latency in clock ticks (both
	// backends); WallLatency the same in milliseconds (Live only).
	TickLatency LatencySummary  `json:"tick_latency"`
	WallLatency *LatencySummary `json:"wall_latency,omitempty"`

	// StepsAccounted marks the Sim step ledger (per-process actions plus
	// shared-object charges). Live runs have no step ledger.
	StepsAccounted bool    `json:"steps_accounted"`
	Steps          []int64 `json:"steps,omitempty"`
	TotalSteps     int64   `json:"total_steps,omitempty"`

	// MessagesAccounted marks the §4.3 synthetic message count (Sim with
	// AccountCosts only).
	MessagesAccounted bool  `json:"messages_accounted"`
	Messages          int64 `json:"messages,omitempty"`

	Net      *NetReport      `json:"net,omitempty"`
	Wire     *WireReport     `json:"wire,omitempty"`
	Paxos    *PaxosReport    `json:"paxos,omitempty"`
	Replog   *ReplogReport   `json:"replog,omitempty"`
	WAL      *WALReport      `json:"wal,omitempty"`
	Sched    *SchedReport    `json:"sched,omitempty"`
	Chaos    *ChaosReport    `json:"chaos,omitempty"`
	Conflict *ConflictReport `json:"conflict,omitempty"`

	// Coordination is the per-pair-log footprint, sorted by pair.
	Coordination []PairCoordination `json:"coordination,omitempty"`

	// EventsTruncated counts events dropped past the recorder cap.
	EventsTruncated int64 `json:"events_truncated,omitempty"`
	// Events is the structured timeline (omitted from JSON; use
	// WriteTimeline for rendering).
	Events []Event `json:"-"`
}

// Report assembles the recorder's view of the run: timeline, latency
// summaries, coordination counts and substrate counters. Backends decorate
// the result with what only they know (step ledgers, transport counters).
func (r *Recorder) Report() RunReport {
	if r == nil {
		return RunReport{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := RunReport{
		Wall:            r.wallNow(),
		Multicasts:      r.multicasts,
		Deliveries:      r.deliveries,
		TickLatency:     Summarise(r.tickLat),
		EventsTruncated: r.truncated,
		Events:          append([]Event(nil), r.events...),
	}
	if !r.epoch.IsZero() {
		ws := Summarise(r.wallLat)
		out.WallLatency = &ws
	} else {
		out.Wall = 0
	}
	if v := r.paxos.Proposals.Load() + r.paxos.Rounds.Load() + r.paxos.FastRounds.Load() + r.paxos.Decisions.Load() + r.paxos.Probes.Load(); v > 0 {
		out.Paxos = &PaxosReport{
			Proposals:         r.paxos.Proposals.Load(),
			Rounds:            r.paxos.Rounds.Load(),
			RoundFailures:     r.paxos.RoundFailures.Load(),
			FastRounds:        r.paxos.FastRounds.Load(),
			FastRoundFailures: r.paxos.FastRoundFailures.Load(),
			WindowRounds:      r.paxos.WindowRounds.Load(),
			WindowFailures:    r.paxos.WindowFailures.Load(),
			WindowDepthPeak:   r.paxos.WindowDepthPeak.Load(),
			LeasesAcquired:    r.paxos.LeasesAcquired.Load(),
			LeasesLost:        r.paxos.LeasesLost.Load(),
			Decisions:         r.paxos.Decisions.Load(),
			Probes:            r.paxos.Probes.Load(),
			RespDrops:         r.paxos.RespDrops.Load(),
			RespStale:         r.paxos.RespStale.Load(),
		}
	}
	if v := r.replog.Applies.Load() + r.replog.Submits.Load(); v > 0 {
		out.Replog = &ReplogReport{
			Applies:    r.replog.Applies.Load(),
			Submits:    r.replog.Submits.Load(),
			Batches:    r.replog.Batches.Load(),
			BatchedOps: r.replog.BatchedOps.Load(),
			FwdOps:     r.replog.FwdOps.Load(),
			RemoteOps:  r.replog.RemoteOps.Load(),
		}
	}
	if v := r.sched.Scans.Load() + r.sched.SkippedScans.Load() + r.sched.NotifyWakeups.Load() + r.sched.TimerWakeups.Load(); v > 0 {
		out.Sched = &SchedReport{
			NotifyWakeups: r.sched.NotifyWakeups.Load(),
			TimerWakeups:  r.sched.TimerWakeups.Load(),
			Scans:         r.sched.Scans.Load(),
			SkippedScans:  r.sched.SkippedScans.Load(),
			Actions:       r.sched.Actions.Load(),
			GuardVisits:   r.sched.GuardVisits.Load(),
		}
	}
	if v := r.wal.Appends.Load() + r.wal.RecoveredRecords.Load(); v > 0 {
		out.WAL = &WALReport{
			Appends:          r.wal.Appends.Load(),
			Bytes:            r.wal.Bytes.Load(),
			Syncs:            r.wal.Syncs.Load(),
			Rotations:        r.wal.Rotations.Load(),
			RecoveredRecords: r.wal.RecoveredRecords.Load(),
			RecoveryNanos:    r.wal.RecoveryNanos.Load(),
		}
	}
	interesting := r.fastDeliveries > 0
	for class := range r.classes {
		if class != 0 {
			interesting = true
		}
	}
	if interesting {
		cr := &ConflictReport{FastDeliveries: r.fastDeliveries}
		classes := make([]uint64, 0, len(r.classes))
		for class := range r.classes {
			classes = append(classes, class)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		for _, class := range classes {
			cr.Classes = append(cr.Classes, ClassCount{Class: class, Count: r.classes[class]})
		}
		out.Conflict = cr
	}
	pairs := make([]Pair, 0, len(r.coord))
	for pair := range r.coord {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	for _, pair := range pairs {
		pc := r.coord[pair]
		per := make(map[groups.Process]int64, len(pc.perProc))
		for p, v := range pc.perProc {
			per[p] = v
		}
		out.Coordination = append(out.Coordination, PairCoordination{
			A: pair.A, B: pair.B, Ops: pc.ops, Contended: pc.contended, PerProc: per,
		})
	}
	return out
}

// StepsOf returns the step count of process p, or ErrNotAccounted when the
// run kept no step ledger (the Live backend).
func (r *RunReport) StepsOf(p int) (int64, error) {
	if !r.StepsAccounted {
		return 0, fmt.Errorf("%w: no step ledger (backend %q)", ErrNotAccounted, r.Backend)
	}
	if p < 0 || p >= len(r.Steps) {
		return 0, fmt.Errorf("obs: process %d out of range [0,%d)", p, len(r.Steps))
	}
	return r.Steps[p], nil
}

// SentMessages returns the synthetic §4.3 message count, or ErrNotAccounted
// when the run did not charge shared-object costs.
func (r *RunReport) SentMessages() (int64, error) {
	if !r.MessagesAccounted {
		return 0, fmt.Errorf("%w: synthetic message count needs Sim with cost accounting", ErrNotAccounted)
	}
	return r.Messages, nil
}

// PacketsPerDelivery returns real wire packets per delivery event; ok is
// false when the run measured no transport traffic (the Sim backend) or
// delivered nothing.
func (r *RunReport) PacketsPerDelivery() (float64, bool) {
	if r.Net == nil || r.Deliveries == 0 {
		return 0, false
	}
	return float64(r.Net.Packets) / float64(r.Deliveries), true
}

// CoordinationOf returns the coordination footprint of the pair (g, h), if
// the run recorded one.
func (r *RunReport) CoordinationOf(g, h groups.GroupID) (PairCoordination, bool) {
	if g > h {
		g, h = h, g
	}
	for _, pc := range r.Coordination {
		if pc.A == g && pc.B == h {
			return pc, true
		}
	}
	return PairCoordination{}, false
}

// String renders a compact human summary.
func (r *RunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run report (%s backend): %d procs, %d groups, %d multicasts, %d deliveries",
		r.Backend, r.Processes, r.Groups, r.Multicasts, r.Deliveries)
	fmt.Fprintf(&b, "\n  clock: %d ticks", r.Ticks)
	if r.Wall > 0 {
		fmt.Fprintf(&b, ", %v wall", r.Wall.Round(time.Millisecond))
	}
	if r.TickLatency.Count > 0 {
		fmt.Fprintf(&b, "\n  delivery latency (ticks): p50=%.0f p90=%.0f p99=%.0f max=%.0f",
			r.TickLatency.P50, r.TickLatency.P90, r.TickLatency.P99, r.TickLatency.Max)
	}
	if r.WallLatency != nil && r.WallLatency.Count > 0 {
		fmt.Fprintf(&b, "\n  delivery latency (ms):    p50=%.2f p90=%.2f p99=%.2f max=%.2f",
			r.WallLatency.P50, r.WallLatency.P90, r.WallLatency.P99, r.WallLatency.Max)
	}
	if r.StepsAccounted {
		fmt.Fprintf(&b, "\n  steps: %d total across %d processes", r.TotalSteps, len(r.Steps))
	}
	if r.MessagesAccounted {
		fmt.Fprintf(&b, ", %d synthetic messages", r.Messages)
	}
	if r.Net != nil {
		fmt.Fprintf(&b, "\n  net: %d packets, %d bytes, %d overflow drops", r.Net.Packets, r.Net.Bytes, r.Net.OverflowDrops)
		if ppd, ok := r.PacketsPerDelivery(); ok {
			fmt.Fprintf(&b, " (%.1f packets/delivery)", ppd)
		}
	}
	if r.Wire != nil {
		fmt.Fprintf(&b, "\n  wire: %d frames out (%d B), %d frames in (%d B), %d dials, %d reconnects",
			r.Wire.FramesEncoded, r.Wire.BytesOut, r.Wire.FramesDecoded, r.Wire.BytesIn,
			r.Wire.Dials, r.Wire.Reconnects)
		if r.Wire.Flushes > 0 {
			fmt.Fprintf(&b, "\n  wire flushes: %d (%.1f frames/flush)", r.Wire.Flushes, r.Wire.FramesPerFlush())
		}
		if n := r.Wire.DecodeErrors + r.Wire.ShortReads + r.Wire.QueueDrops + r.Wire.WriteDrops; n > 0 {
			fmt.Fprintf(&b, " (%d decode errors, %d short reads, %d queue drops, %d write drops)",
				r.Wire.DecodeErrors, r.Wire.ShortReads, r.Wire.QueueDrops, r.Wire.WriteDrops)
		}
	}
	if r.Paxos != nil {
		fmt.Fprintf(&b, "\n  paxos: %d proposals, %d rounds (%d failed), %d fast rounds (%d failed), %d decisions, %d probes",
			r.Paxos.Proposals, r.Paxos.Rounds, r.Paxos.RoundFailures,
			r.Paxos.FastRounds, r.Paxos.FastRoundFailures, r.Paxos.Decisions, r.Paxos.Probes)
		if r.Paxos.WindowRounds > 0 {
			fmt.Fprintf(&b, "\n  window: %d rounds (%d failed), depth peak %d",
				r.Paxos.WindowRounds, r.Paxos.WindowFailures, r.Paxos.WindowDepthPeak)
		}
		fmt.Fprintf(&b, "\n  leases: %d acquired, %d lost; resp: %d dropped, %d stale",
			r.Paxos.LeasesAcquired, r.Paxos.LeasesLost, r.Paxos.RespDrops, r.Paxos.RespStale)
	}
	if r.Replog != nil {
		fmt.Fprintf(&b, "\n  replog: %d submits, %d applies", r.Replog.Submits, r.Replog.Applies)
		if r.Replog.Batches > 0 {
			fmt.Fprintf(&b, ", %d batches (%.1f ops/batch)", r.Replog.Batches, r.Replog.MeanBatchOps())
		}
	}
	if r.Sched != nil {
		fmt.Fprintf(&b, "\n  sched: %d notify + %d timer wakeups, %d scans (%d skipped), %d actions, %d guard visits",
			r.Sched.NotifyWakeups, r.Sched.TimerWakeups, r.Sched.Scans, r.Sched.SkippedScans, r.Sched.Actions, r.Sched.GuardVisits)
	}
	if r.WAL != nil {
		fmt.Fprintf(&b, "\n  wal: %d appends (%d B, %.1f B/append), %d syncs, %d rotations",
			r.WAL.Appends, r.WAL.Bytes, r.WAL.BytesPerAppend(), r.WAL.Syncs, r.WAL.Rotations)
		if r.WAL.RecoveredRecords > 0 {
			fmt.Fprintf(&b, "; recovered %d records in %v",
				r.WAL.RecoveredRecords, time.Duration(r.WAL.RecoveryNanos).Round(time.Microsecond))
		}
	}
	if r.Chaos != nil {
		fmt.Fprintf(&b, "\n  chaos: %d injections (%d dup, %d delay, %d drop)",
			r.Chaos.Injections(), r.Chaos.Duplicated, r.Chaos.Delayed,
			r.Chaos.DroppedRandom+r.Chaos.DroppedPartition+r.Chaos.DroppedDown+r.Chaos.DroppedOverflow)
	}
	if r.Conflict != nil {
		fmt.Fprintf(&b, "\n  conflict: %d fast deliveries (skipped coordination), %d classes",
			r.Conflict.FastDeliveries, len(r.Conflict.Classes))
		for _, cc := range r.Conflict.Classes {
			name := fmt.Sprintf("k%d", cc.Class)
			switch cc.Class {
			case 0:
				name = "all"
			case ^uint64(0):
				name = "free"
			}
			fmt.Fprintf(&b, "\n    class %s: %d multicasts", name, cc.Count)
		}
	}
	for _, pc := range r.Coordination {
		if pc.A == pc.B {
			continue
		}
		fmt.Fprintf(&b, "\n  coordination g%d∩g%d: %d ops (%d contended)", pc.A, pc.B, pc.Ops, pc.Contended)
	}
	if r.EventsTruncated > 0 {
		fmt.Fprintf(&b, "\n  timeline truncated: %d events dropped past the cap", r.EventsTruncated)
	}
	return b.String()
}

// WriteTimeline renders the last max events (all when max <= 0), one per
// line — the timeline a failing soak ships with its report.
func (r *RunReport) WriteTimeline(w io.Writer, max int) {
	ev := r.Events
	if max > 0 && len(ev) > max {
		fmt.Fprintf(w, "  ... %d earlier events elided ...\n", len(ev)-max)
		ev = ev[len(ev)-max:]
	}
	for _, e := range ev {
		pair := fmt.Sprintf("g%d", e.G)
		if e.H != e.G {
			pair = fmt.Sprintf("g%d∩g%d", e.G, e.H)
		}
		if e.Wall > 0 {
			fmt.Fprintf(w, "  t=%-6d %-9s p%-3d m%-4d %-8s v=%-4d wall=%v\n",
				e.T, e.Kind, e.P, e.M, pair, e.V, e.Wall.Round(time.Microsecond))
			continue
		}
		fmt.Fprintf(w, "  t=%-6d %-9s p%-3d m%-4d %-8s v=%d\n", e.T, e.Kind, e.P, e.M, pair, e.V)
	}
}
