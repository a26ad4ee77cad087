// Command benchgate is the repository's statistical performance gate: an
// in-repo, dependency-free replacement for the benchstat-plus-awk rituals
// CI perf checks usually accrete.
//
// Two modes:
//
//	benchgate micro -old baselines/micro.txt -new BENCH_micro.txt
//	    compares `go test -bench` output (run with -count N, N >= 3) against
//	    a committed baseline. allocs/op is machine-independent and gated
//	    strictly: any increase fails. ns/op is noisy and machine-dependent,
//	    so it fails only when the regression is BOTH statistically
//	    significant (Mann-Whitney U, two-sided, alpha 0.05) AND large
//	    (median ratio above -ratio, default 3x) — the double test keeps
//	    shared-runner noise and hardware drift from failing honest changes
//	    while still catching the accidental O(n^2).
//
//	benchgate live -old benchmarks/baselines/BENCH_scenarios.json -new BENCH_scenarios_new.json
//	    compares two loadsim documents row by row, matching rows on their
//	    identity keys (internal/benchfmt); a row that lacks one is refused
//	    by name. On chaos-free rows, packets/delivery — a protocol
//	    property, not a timing — may not exceed the baseline by more than
//	    -pkts-slack (default 1.25x); where both rows carry mean_batch it
//	    is packets per Algorithm-1 delivery (× mean_batch) that may not,
//	    since how many batches a burst enters as is timing.
//	    deliveries/sec may not fall below -dlv-floor (default 0.25x) of
//	    the baseline, and the stream digest may not move while the
//	    multicast count stays. A column only one
//	    side carries is reported "not compared". Chaos-seeded rows are
//	    reported but never gate: the nemesis owns their variance. File-WAL
//	    durability rows gate throughput against the softer -file-dlv-floor
//	    (default 0.10x): fsync latency belongs to the runner's disk, not
//	    the code.
//
// Exit status: 0 when every gate passes, 1 on any regression, 2 on usage
// or input errors.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	var failed bool
	switch os.Args[1] {
	case "micro":
		fs := flag.NewFlagSet("micro", flag.ExitOnError)
		oldPath := fs.String("old", "", "baseline `file` (go test -bench output)")
		newPath := fs.String("new", "", "candidate `file` (go test -bench output)")
		alpha := fs.Float64("alpha", 0.05, "significance level for the Mann-Whitney test")
		ratio := fs.Float64("ratio", 3.0, "ns/op median ratio above which a significant slowdown fails")
		fs.Parse(os.Args[2:])
		failed, err = microGate(os.Stdout, *oldPath, *newPath, *alpha, *ratio)
	case "live":
		fs := flag.NewFlagSet("live", flag.ExitOnError)
		oldPath := fs.String("old", "", "baseline loadsim document")
		newPath := fs.String("new", "", "candidate loadsim document")
		pktsSlack := fs.Float64("pkts-slack", 1.25, "max packets/delivery as a multiple of baseline")
		dlvFloor := fs.Float64("dlv-floor", 0.25, "min deliveries/sec as a fraction of baseline")
		fileDlvFloor := fs.Float64("file-dlv-floor", 0.10, "min deliveries/sec for file-WAL durability rows (fsync speed is a disk property)")
		fs.Parse(os.Args[2:])
		failed, err = liveGate(os.Stdout, *oldPath, *newPath, *pktsSlack, *dlvFloor, *fileDlvFloor)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchgate micro|live [flags]")
	os.Exit(2)
}
