// Package benchfmt is the on-disk format of the live benchmark document
// (benchmarks/baselines/BENCH_scenarios.json): cmd/loadsim writes one row
// per scenario, cmd/benchgate gates fresh rows against committed ones.
//
// Rows describe themselves. Every row carries its identity key set (Key) —
// what was run, on what — and a row that lacks one is refused on load.
// Measured columns are optional: a column one side of a comparison does not
// carry is not compared (Column), so adding a column needs neither a
// version nor a regenerated baseline.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/obs"
)

// Key is a row's identity — what was run, on what. Two rows are the same
// measurement, taken twice, exactly when their keys are equal; benchgate
// matches rows on it. Always written, required on load.
type Key struct {
	// Scenario names the workload scenario the row measured.
	Scenario string `json:"scenario"`
	// WorkloadSeed is the generator seed; (Scenario, WorkloadSeed) replays
	// the exact stream this row measured.
	WorkloadSeed int64  `json:"workload_seed"`
	Processes    int    `json:"processes"`
	Groups       int    `json:"groups"`
	Transport    string `json:"transport"`
	// ChaosSeed is the nemesis seed of the row's transport, 0 for none.
	ChaosSeed int64 `json:"chaos_seed"`
	// ConflictRate is the fraction of the load tagged into keyed conflict
	// classes: 1.0 is the vanilla total-order run (every pair conflicts),
	// anything below runs the generic variant where the remaining messages
	// are ClassFree and skip the g∩h coordination entirely.
	ConflictRate float64 `json:"conflict_rate"`
	// FsyncMode is the write-ahead-log backing (workload.Scenario.WAL):
	// "mem" (in-memory group commit, the default substrate), "file" (file
	// WAL, fsync on every commit barrier) or "file-nosync" (file WAL, OS
	// buffering only).
	FsyncMode string `json:"fsync_mode"`
}

// identityKeys are the JSON names of Key's fields.
var identityKeys = func() []string {
	t := reflect.TypeOf(Key{})
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i] = t.Field(i).Tag.Get("json")
	}
	return keys
}()

// LiveRow is one measured configuration — a row of a BENCH document: its
// identity and the measured columns, every one of which is optional.
type LiveRow struct {
	Key

	// StreamDigest is the FNV-1a certificate of the generated stream: two
	// rows with equal digests consumed bit-identical workloads.
	StreamDigest string `json:"stream_digest,omitempty"`

	Multicasts int64 `json:"multicasts,omitempty"`
	Deliveries int64 `json:"deliveries,omitempty"`
	// OfferedPerSec is the open-loop offered load (absent on burst rows).
	OfferedPerSec float64 `json:"offered_per_sec,omitempty"`

	// Latency is measured from each arrival's intended send time, so a
	// driver that falls behind schedule accrues the backlog here instead of
	// hiding it (no coordinated omission). A tail percentile is left out
	// when too few samples lie beyond it to tell it from the maximum.
	P50Ms              float64 `json:"p50_ms,omitempty"`
	P90Ms              float64 `json:"p90_ms,omitempty"`
	P99Ms              float64 `json:"p99_ms,omitempty"`
	P999Ms             float64 `json:"p999_ms,omitempty"`
	MaxMs              float64 `json:"max_ms,omitempty"`
	MsgsPerSec         float64 `json:"msgs_per_sec,omitempty"`
	DeliveriesPerSec   float64 `json:"deliveries_per_sec,omitempty"`
	Packets            int64   `json:"packets,omitempty"`
	PacketsPerDelivery float64 `json:"packets_per_delivery,omitempty"`
	ChaosInjections    uint64  `json:"chaos_injections,omitempty"`
	// FastDeliveries counts deliveries that skipped the pairwise
	// coordination pipeline (generic variant, commuting messages only);
	// FastShare is their fraction of all deliveries.
	FastDeliveries int64   `json:"fast_deliveries,omitempty"`
	FastShare      float64 `json:"fast_share,omitempty"`
	WallMs         float64 `json:"wall_ms,omitempty"`
	// Batching pipeline shape: mean ops per proposed replog batch and the
	// peak number of outstanding windowed accept rounds in any realm.
	AvgBatchOps     float64 `json:"avg_batch_ops,omitempty"`
	WindowDepthPeak int64   `json:"window_depth_peak,omitempty"`
	FwdOps          int64   `json:"fwd_ops,omitempty"`
	RemoteOps       int64   `json:"remote_ops,omitempty"`
	// Wire traffic (tcp transport only): real encoded bytes on the socket,
	// the write loops' coalescing factor, and frames lost to failed flushes.
	WireBytesOut   int64   `json:"wire_bytes_out,omitempty"`
	WireFramesOut  int64   `json:"wire_frames_out,omitempty"`
	WireReconnects int64   `json:"wire_reconnects,omitempty"`
	FramesPerFlush float64 `json:"frames_per_flush,omitempty"`
	WireWriteDrops int64   `json:"wire_write_drops,omitempty"`
	// WAL footprint: mean record payload bytes per append, group-commit
	// barriers, and (file rows) the wall time a fresh process took to
	// replay the finished run's logs.
	WALBytesPerOp float64 `json:"wal_bytes_per_op,omitempty"`
	WALSyncs      int64   `json:"wal_syncs,omitempty"`
	RecoveryMs    float64 `json:"recovery_ms,omitempty"`
	// Scheduler shape: how much stepping work the run's deliveries cost.
	WakeupsPerDelivery float64 `json:"wakeups_per_delivery,omitempty"`
	StepsPerDelivery   float64 `json:"steps_per_delivery,omitempty"`
	Scans              int64   `json:"scans,omitempty"`
	// What silence costs: packets sent and CPU burnt per second over the
	// linger after the last delivery, while nothing is multicast.
	IdlePacketsPerS float64 `json:"idle_packets_per_s,omitempty"`
	IdleCPUMsPerS   float64 `json:"idle_cpu_ms_per_s,omitempty"`
}

// Column is one measured column seen from both sides of a comparison. A
// side that does not carry the column reads as zero.
type Column struct{ Old, New float64 }

// Compared reports whether both sides carry the column. When one does not
// — the column is newer than the other document, or was left out of the
// row — there is nothing to gate and nothing to print as a delta.
func (c Column) Compared() bool { return c.Old > 0 && c.New > 0 }

// Ratio is New/Old; meaningful only when Compared.
func (c Column) Ratio() float64 { return c.New / c.Old }

// Format renders the column as "old -> new" with the given verb for each
// side, or as "not compared".
func (c Column) Format(verb string) string {
	if !c.Compared() {
		return "not compared"
	}
	return fmt.Sprintf(verb+" -> "+verb, c.Old, c.New)
}

// LiveDoc is a BENCH document: a generation stamp and the measured rows.
type LiveDoc struct {
	Generated string    `json:"generated"`
	Runs      []LiveRow `json:"runs"`
}

// NewDoc returns an empty document stamped now.
func NewDoc() LiveDoc {
	return LiveDoc{Generated: time.Now().UTC().Format(time.RFC3339)}
}

// FromReport fills the report-derived columns of a row: counts, throughput
// and every substrate counter the run measured. The scenario's identity
// columns and the open-loop columns (offered rate, latency from intended
// send times) are the caller's to set — the report does not know them.
func FromReport(rep obs.RunReport) LiveRow {
	row := LiveRow{
		Key:        Key{Processes: rep.Processes, Groups: rep.Groups},
		Multicasts: rep.Multicasts,
		Deliveries: rep.Deliveries,
		WallMs:     float64(rep.Wall) / float64(time.Millisecond),
	}
	if rep.Wall > 0 {
		row.MsgsPerSec = float64(rep.Multicasts) / rep.Wall.Seconds()
		row.DeliveriesPerSec = float64(rep.Deliveries) / rep.Wall.Seconds()
	}
	if rep.Net != nil {
		row.Packets = rep.Net.Packets
	}
	if ppd, ok := rep.PacketsPerDelivery(); ok {
		row.PacketsPerDelivery = ppd
	}
	row.ChaosInjections = rep.Chaos.Injections()
	row.AvgBatchOps = rep.Replog.MeanBatchOps()
	if rep.Replog != nil {
		row.FwdOps = rep.Replog.FwdOps
		row.RemoteOps = rep.Replog.RemoteOps
	}
	if rep.Paxos != nil {
		row.WindowDepthPeak = rep.Paxos.WindowDepthPeak
	}
	if rep.Conflict != nil {
		row.FastDeliveries = rep.Conflict.FastDeliveries
		if rep.Deliveries > 0 {
			row.FastShare = float64(rep.Conflict.FastDeliveries) / float64(rep.Deliveries)
		}
	}
	if rep.Wire != nil {
		row.WireBytesOut = rep.Wire.BytesOut
		row.WireFramesOut = rep.Wire.FramesEncoded
		row.WireReconnects = rep.Wire.Reconnects
		row.FramesPerFlush = rep.Wire.FramesPerFlush()
		row.WireWriteDrops = rep.Wire.WriteDrops
	}
	if rep.WAL != nil {
		row.WALBytesPerOp = rep.WAL.BytesPerAppend()
		row.WALSyncs = rep.WAL.Syncs
		row.RecoveryMs = float64(rep.WAL.RecoveryNanos) / float64(time.Millisecond)
	}
	if rep.Sched != nil {
		row.Scans = rep.Sched.Scans
		if rep.Deliveries > 0 {
			row.WakeupsPerDelivery = float64(rep.Sched.NotifyWakeups+rep.Sched.TimerWakeups) / float64(rep.Deliveries)
			row.StepsPerDelivery = float64(rep.Sched.Actions) / float64(rep.Deliveries)
		}
	}
	return row
}

// Load reads a BENCH document from disk and validates it. The file comes
// from outside the program, so the check is strict: every row must carry
// the whole identity key set. A row without it would match whatever other
// row happens to share its remaining keys — in particular a row with no
// scenario aliases every scenario of its topology — so it is refused, with
// an error that names the file, the row and the missing key.
func Load(path string) (LiveDoc, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return LiveDoc{}, err
	}
	var raw struct {
		Runs []map[string]json.RawMessage `json:"runs"`
	}
	var doc LiveDoc
	if err := json.Unmarshal(blob, &raw); err != nil {
		return LiveDoc{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return LiveDoc{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Runs) == 0 {
		return LiveDoc{}, fmt.Errorf("%s: no runs", path)
	}
	for i, row := range raw.Runs {
		for _, key := range identityKeys {
			if _, ok := row[key]; !ok {
				return LiveDoc{}, fmt.Errorf("%s: row %d has no %q: rows are matched on %v and every row must carry all of them",
					path, i, key, identityKeys)
			}
		}
		if doc.Runs[i].Scenario == "" {
			return LiveDoc{}, fmt.Errorf("%s: row %d has an empty \"scenario\"", path, i)
		}
	}
	return doc, nil
}

// Write marshals the document (indented, trailing newline) to path.
func (d LiveDoc) Write(path string) error {
	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
