package main

import (
	"fmt"
	"io"

	"repro/internal/benchfmt"
)

// microGate compares candidate micro-benchmark output to the baseline and
// reports whether any gate failed.
func microGate(w io.Writer, oldPath, newPath string, alpha, ratioMax float64) (failed bool, err error) {
	if oldPath == "" || newPath == "" {
		return false, fmt.Errorf("micro: -old and -new are required")
	}
	old, err := parseBench(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := parseBench(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-40s %12s %12s %8s %8s  %s\n",
		"benchmark", "old ns/op", "new ns/op", "ratio", "p", "verdict")
	for _, name := range sortedNames(old, cur) {
		o, n := old[name], cur[name]
		switch {
		case o == nil:
			fmt.Fprintf(w, "%-40s %12s %12.1f %8s %8s  new (no baseline)\n",
				name, "-", median(n.NsPerOp), "-", "-")
			continue
		case n == nil:
			fmt.Fprintf(w, "%-40s %12.1f %12s %8s %8s  missing from candidate\n",
				name, median(o.NsPerOp), "-", "-", "-")
			failed = true
			continue
		}
		om, nm := median(o.NsPerOp), median(n.NsPerOp)
		ratio := nm / om
		p := mannWhitneyP(o.NsPerOp, n.NsPerOp)
		verdict := "ok"
		// ns/op: fail only on significant AND large. With too few
		// repetitions for the test (either side < 3), the ratio alone
		// gates — there is no significance to lean on.
		small := len(o.NsPerOp) < 3 || len(n.NsPerOp) < 3
		if ratio > ratioMax && (small || p < alpha) {
			verdict = fmt.Sprintf("FAIL: %.2fx slower (p=%.3f)", ratio, p)
			failed = true
		}
		// allocs/op: machine-independent, any growth fails.
		if oa, ok := o.maxAllocs(); ok {
			if na, ok2 := n.maxAllocs(); ok2 && na > oa {
				verdict = fmt.Sprintf("FAIL: allocs/op %d -> %d", oa, na)
				failed = true
			}
		}
		fmt.Fprintf(w, "%-40s %12.1f %12.1f %8.2f %8.3f  %s\n", name, om, nm, ratio, p, verdict)
	}
	return failed, nil
}

// liveGate compares a fresh loadsim document against a baseline, matching
// rows on their identity (benchfmt.Key). Only chaos-free rows gate;
// packets/delivery is the protocol-cost check and deliveries/sec the
// catastrophic-throughput floor, each compared only when both rows carry
// the column. Where both rows also carry mean_batch, the packets gated and
// printed are those of one Algorithm-1 delivery (packets/delivery ×
// mean_batch): a burst's packets are its batches', and how many batches a
// burst enters as is timing, not protocol cost (DESIGN.md §13). Durability
// rows (fsync_mode != "mem") keep the packets gate — storage does not change
// the wire protocol — but use fileDlvFloor for throughput: fsync latency is
// a property of the runner's disk, and a shared-CI runner's can be an order
// of magnitude worse than the baseline machine's.
func liveGate(w io.Writer, oldPath, newPath string, pktsSlack, dlvFloor, fileDlvFloor float64) (failed bool, err error) {
	if oldPath == "" || newPath == "" {
		return false, fmt.Errorf("live: -old and -new are required")
	}
	old, err := benchfmt.Load(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := benchfmt.Load(newPath)
	if err != nil {
		return false, err
	}
	base := make(map[benchfmt.Key]benchfmt.LiveRow, len(old.Runs))
	for _, r := range old.Runs {
		base[r.Key] = r
	}
	fmt.Fprintf(w, "%-38s %22s %18s  %s\n", "row", "pkts old->new", "dlv/sec old->new", "verdict")
	matched := 0
	for _, r := range cur.Runs {
		b, ok := base[r.Key]
		label := fmt.Sprintf("%s n=%d k=%d %s", r.Scenario, r.Processes, r.Groups, r.Transport)
		if r.ChaosSeed != 0 {
			label = fmt.Sprintf("%s chaos=%d", label, r.ChaosSeed)
		}
		if r.ConflictRate != 1 {
			label = fmt.Sprintf("%s cfl=%.2f", label, r.ConflictRate)
		}
		if r.FsyncMode != "mem" {
			label = fmt.Sprintf("%s %s", label, r.FsyncMode)
		}
		if !ok {
			fmt.Fprintf(w, "%-38s %22s %18s  new row (no baseline)\n", label, "-", "-")
			continue
		}
		matched++
		pkts := benchfmt.Column{Old: b.PacketsPerDelivery, New: r.PacketsPerDelivery}
		pktsUnit := "delivery"
		if b.MeanBatch > 0 && r.MeanBatch > 0 {
			pkts = benchfmt.Column{Old: pkts.Old * b.MeanBatch, New: pkts.New * r.MeanBatch}
			pktsUnit = "Algorithm-1 delivery"
		}
		dlv := benchfmt.Column{Old: b.DeliveriesPerSec, New: r.DeliveriesPerSec}
		verdict := "ok"
		if r.ChaosSeed != 0 {
			verdict = "info (chaos row, not gated)"
		} else {
			floor := dlvFloor
			if r.FsyncMode != "mem" {
				floor = fileDlvFloor
			}
			// Replay certificate: two full-length runs of the same (scenario,
			// seed) must consume bit-identical streams. A digest drift with
			// matching counts means the generator changed under the scenario,
			// and every latency delta below is then workload noise.
			if b.StreamDigest != "" && r.StreamDigest != "" &&
				b.Multicasts == r.Multicasts && b.StreamDigest != r.StreamDigest {
				verdict = fmt.Sprintf("FAIL: stream digest %s != baseline %s (generator changed under this scenario?)",
					r.StreamDigest, b.StreamDigest)
				failed = true
			}
			if pkts.Compared() && pkts.Ratio() > pktsSlack {
				verdict = fmt.Sprintf("FAIL: packets/%s %.1f > %.2fx baseline", pktsUnit, pkts.New, pktsSlack)
				failed = true
			}
			if dlv.Compared() && dlv.Ratio() < floor {
				verdict = fmt.Sprintf("FAIL: deliveries/sec %.0f < %.2fx baseline", dlv.New, floor)
				failed = true
			}
		}
		fmt.Fprintf(w, "%-38s %22s %18s  %s\n", label, pkts.Format("%.1f"), dlv.Format("%.0f"), verdict)
	}
	if matched == 0 {
		return false, fmt.Errorf("no candidate row matches any baseline row")
	}
	return failed, nil
}
