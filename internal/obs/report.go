package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
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
	slices.Sort(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	q := func(p float64) float64 {
		// Nearest-rank on the sorted samples.
		return s[min(max(int(p*float64(len(s))+0.5)-1, 0), len(s)-1)]
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

	// The per-layer sections are snapshots of the layers' counter blocks
	// (obs.go); a layer that did no work has none. Net, Wire and Chaos come
	// from the transport and are present whenever it keeps them.
	Net      *NetReport      `json:"net,omitempty"`
	Wire     *WireCounters   `json:"wire,omitempty"`
	Paxos    *PaxosCounters  `json:"paxos,omitempty"`
	Replog   *ReplogCounters `json:"replog,omitempty"`
	WAL      *WALCounters    `json:"wal,omitempty"`
	Sched    *SchedCounters  `json:"sched,omitempty"`
	Chaos    *ChaosCounters  `json:"chaos,omitempty"`
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
	}
	out.Paxos = present(Snapshot(&r.paxos))
	out.Replog = present(Snapshot(&r.replog))
	out.Sched = present(Snapshot(&r.sched))
	out.WAL = present(Snapshot(&r.wal))
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
		slices.Sort(classes)
		for _, class := range classes {
			cr.Classes = append(cr.Classes, ClassCount{Class: class, Count: r.classes[class]})
		}
		out.Conflict = cr
	}
	pairs := make([]Pair, 0, len(r.coord))
	for pair := range r.coord {
		pairs = append(pairs, pair)
	}
	slices.SortFunc(pairs, func(x, y Pair) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	for _, pair := range pairs {
		pc := r.coord[pair]
		per := make(map[groups.Process]int64)
		for p, v := range pc.perProc {
			if v != 0 {
				per[groups.Process(p)] = v
			}
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

// String renders a compact human summary. Each per-layer section is one
// line naming every non-zero counter of its block by JSON name, so a counter
// added to a block shows up here without an edit, plus the block's derived
// per-unit figure when it has one.
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
	for _, sec := range []struct {
		name  string
		block any
		per   float64
		unit  string
	}{
		{"wire", r.Wire, r.Wire.FramesPerFlush(), "frames/flush"},
		{"paxos", r.Paxos, 0, ""},
		{"replog", r.Replog, r.Replog.MeanBatchOps(), "ops/batch"},
		{"sched", r.Sched, r.Sched.MeanBatch(), "msgs/batch"},
		{"wal", r.WAL, r.WAL.BytesPerAppend(), "B/append"},
		{"chaos", r.Chaos, 0, ""},
	} {
		var fields []string
		walk(sec.block, func(_ int, name string, v int64) {
			if v != 0 {
				fields = append(fields, fmt.Sprintf("%s=%d", name, v))
			}
		})
		if len(fields) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n  %s: %s", sec.name, strings.Join(fields, " "))
		if sec.per > 0 {
			fmt.Fprintf(&b, " (%.1f %s)", sec.per, sec.unit)
		}
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
