// Command loadsim is the live bench driver: it runs named workload
// scenarios (internal/workload) against the live backend, unattended, and
// reduces each run to one self-describing SLO row (internal/benchfmt) that
// cmd/benchgate gates against the committed baseline, keyed by the row's
// identity.
//
// loadsim offers load open-loop: every arrival has an intended send time
// fixed by (scenario, seed) before the run starts, and latency is measured
// from that intended time — a system that falls behind schedule accrues the
// backlog in its own tail instead of throttling the load that measures it
// (no coordinated omission). The burst rows are the limiting case: every
// arrival is due at t = 0. Identical (scenario, seed) reruns consume
// bit-identical streams; the stream_digest column certifies it.
//
// A scenario also names the environment it runs in: chaos_seed wraps the
// transport in the seeded nemesis (mild faults, lifted once the run has made
// as many deliveries as it has multicasts), wal puts the acceptors on file
// write-ahead logs in a temporary directory and measures a post-run replay
// (recovery_ms).
//
// loadsim measures and writes; comparing two documents is cmd/benchgate's
// job alone. Refreshing the committed baseline and gating a fresh campaign
// against it:
//
//	loadsim -json benchmarks/baselines/BENCH_scenarios.json
//	loadsim -json BENCH_scenarios_new.json
//	benchgate live -old benchmarks/baselines/BENCH_scenarios.json -new BENCH_scenarios_new.json
//
// -scenarios picks catalog entries by name ("steady,hot-group"), -scenario-
// file replaces the catalog with a JSON list, -load-scale stretches or
// shrinks every scenario's arrival count (soak vs smoke), and -seed replays
// a different stream. Every run's delivered trace is checked against the
// specification. Soak scenarios additionally run with the replog applied-op
// journal armed and diff every replica's journal against its own paxos
// decision snapshot on exit — the ROADMAP item-8 flake hunt rides along
// with every campaign.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchfmt"
	"repro/internal/cliconf"
	"repro/internal/workload"
)

func main() {
	cc := cliconf.Bind(flag.CommandLine, cliconf.ToolLoadsim)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "loadsim: unexpected arguments %q (scenarios are picked with -scenarios)\n", flag.Args())
		os.Exit(2)
	}
	if err := campaign(os.Stdout, *cc); err != nil {
		fmt.Fprintf(os.Stderr, "loadsim: %v\n", err)
		os.Exit(1)
	}
}

// campaign resolves the scenario list and runs it in order, printing the
// SLO table as rows complete so an unattended log shows progress. Any
// scenario failure (delivery timeout, journal diff) aborts the campaign
// with an error — a partial BENCH document would gate green on whatever
// happened to finish.
func campaign(w *os.File, cc cliconf.Common) error {
	catalog := workload.Catalog()
	if cc.ScenarioFile != "" {
		var err error
		catalog, err = workload.ReadFile(cc.ScenarioFile)
		if err != nil {
			return err
		}
	}
	scs, err := workload.Select(catalog, cc.Scenarios)
	if err != nil {
		return err
	}
	doc := benchfmt.NewDoc()
	fmt.Fprintf(w, "%-12s %3s %3s %-4s %9s %9s | %8s %8s %8s | %8s %6s %5s %5s | %9s %9s\n",
		"scenario", "n", "k", "tpt", "offered/s", "goodput/s", "p50 ms", "p99 ms", "p999 ms", "pkts/dlv", "batch", "fast", "soak", "idle pk/s", "idle ms/s")
	for _, sc := range scs {
		sc = sc.Scale(cc.LoadScale)
		row, err := runScenario(sc, cc.Seed, cc.Transport, cc.Timeout)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		doc.Runs = append(doc.Runs, row)
		soak := ""
		if sc.Soak {
			soak = "ok"
		}
		fmt.Fprintf(w, "%-12s %3d %3d %-4s %9s %9.0f | %8.2f %8s %8s | %8.1f %6.1f %5.2f %5s | %9s %9s\n",
			row.Scenario, row.Processes, row.Groups, row.Transport,
			cell("%.0f", row.OfferedPerSec), row.MsgsPerSec,
			row.P50Ms, cell("%.2f", row.P99Ms), cell("%.2f", row.P999Ms),
			row.PacketsPerDelivery, row.MeanBatch, row.FastShare, soak,
			cell("%.0f", row.IdlePacketsPerS), cell("%.2f", row.IdleCPUMsPerS))
	}
	fmt.Fprintf(w, "\nlatency is measured from each arrival's intended send time (open loop):\n")
	fmt.Fprintf(w, "goodput below offered/s means the backlog went into the tail columns,\n")
	fmt.Fprintf(w, "not into a slowed-down load generator; a burst row has no offered rate and\n")
	fmt.Fprintf(w, "its latency is time-to-drain. A tail percentile with fewer than %d samples\n", minTailSamples)
	fmt.Fprintf(w, "beyond it is left out. The idle columns are packets sent and CPU-ms burnt\n")
	fmt.Fprintf(w, "per second over the %v of silence after the last delivery; batch is the\n", idleLinger)
	fmt.Fprintf(w, "mean requests each Algorithm-1 delivery carried. Replay any\n")
	fmt.Fprintf(w, "row with its (scenario, seed): the stream_digest column certifies the\n")
	fmt.Fprintf(w, "same workload.\n")
	if cc.JSON != "" {
		if err := doc.Write(cc.JSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s (%d scenario rows)\n", cc.JSON, len(doc.Runs))
	}
	return nil
}

// cell formats an optional column for the table: "-" when the row does not
// carry it.
func cell(verb string, v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf(verb, v)
}
