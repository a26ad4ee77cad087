// Command amcastbench is the repository's benchmark: five named workloads
// against the live Algorithm-1 stack, six end-to-end metrics measured with
// tracing off, and a traced set that attributes cost to each layer from
// outside (decorators, report counters, direct probes, a CPU profile). See
// README.md for what every number means and which it should move.
//
//	run.sh                                       every workload, both sets
//	run.sh -workload steady-tcp -trace 0         one workload, end to end
//	run.sh -workload burst-hot -trace 1 -seed 7  its traced set, another seed
//	run.sh -selfcheck                            two sets, compared to the bounds
//
// Every repetition runs in a fresh child process (this binary re-executed
// with -child): heap retained after Stop grows by ~15 MB per 1000-multicast
// repetition, so repetitions sharing a process would not be independent.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// options are the driver's settings: where the load comes from and where
// the artefacts go.
type options struct {
	Seed    int64
	Seconds float64 // timed schedule of one run, divided between timedReps
	OutDir  string
}

// procs is the GOMAXPROCS of the driver and of every child. On the 2-vCPU
// VM this was built on, the kernel alternates, for minutes at a time,
// between spreading a process's two running threads over both CPUs and
// stacking them on one: burst-hot's capacity then reads 1050/s or 620/s and
// steady-mem trades 17% of CPU for 15% of latency, with identical inputs.
// One P takes that choice away from the kernel, so what is measured is the
// stack's own cost; what is not measured is parallel speed-up and
// contention between node goroutines.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain())
	}
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all of them)")
		trace        = flag.String("trace", "", "0: end-to-end set, 1: traced per-layer set (default: both)")
		selfcheck    = flag.Bool("selfcheck", false, "run two end-to-end sets back to back and compare them against the bounds")
		opt          options
	)
	flag.Int64Var(&opt.Seed, "seed", 1, "workload seed: the same seed gives the same arrivals")
	flag.Float64Var(&opt.Seconds, "seconds", 15, "timed schedule per run, split evenly over the repetitions")
	flag.StringVar(&opt.OutDir, "out", filepath.Join(".bench_build", "amcastbench"), "directory for trace.json, cpu.pprof and probe files")
	flag.Parse()
	if flag.NArg() > 0 || opt.Seconds <= 0 || (*trace != "" && *trace != "0" && *trace != "1") {
		fmt.Fprintln(os.Stderr, "usage: amcastbench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-selfcheck] [-out dir]")
		os.Exit(2)
	}
	run := workloads
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amcastbench:", err)
			os.Exit(2)
		}
		run = []spec{w}
	}
	if *selfcheck {
		os.Exit(selfCheck(run, opt))
	}
	// One failing workload never stops the others: it is reported, the
	// rest still run, and the exit code says so at the end.
	status := 0
	for _, traced := range []bool{false, true} {
		if (*trace == "0" && traced) || (*trace == "1" && !traced) {
			continue
		}
		for _, w := range run {
			res, err := runWorkload(w, opt, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "amcastbench: %s: %v\n", w.Name, err)
				status = 1
				continue
			}
			res.print(os.Stdout)
			if !res.Correct {
				status = 1
			}
		}
	}
	os.Exit(status)
}

// result is one run of one workload: the median of each metric over the
// timed repetitions, with the per-repetition values kept beside it.
type result struct {
	Workload  string
	Traced    bool
	Correct   bool
	Attempted int
	Failed    int
	Digest    string
	Metrics   map[string]float64
	Reps      []repResult
}

// runWorkload runs one workload's end-to-end set or its traced set, after
// the workload's discarded warm repetitions.
func runWorkload(w spec, opt options, traced bool) (result, error) {
	outDir := filepath.Join(opt.OutDir, w.Name)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	req := repRequest{Spec: w, Seed: opt.Seed, RepSeconds: opt.Seconds / timedReps, OutDir: outDir}
	for i := 0; i < w.WarmReps; i++ {
		if _, err := runChild(req); err != nil {
			return result{}, fmt.Errorf("warm repetition: %w", err)
		}
	}
	res := result{Workload: w.Name, Traced: traced, Correct: true}
	var err error
	if traced {
		res.Reps, res.Metrics, err = tracedSet(req, opt)
	} else {
		res.Reps, res.Metrics, err = endToEndSet(req)
	}
	if err != nil {
		return result{}, err
	}
	for _, rep := range res.Reps {
		res.Attempted += rep.Pairs
		res.Failed += rep.Failed
		res.Digest = rep.Digest
		for _, v := range rep.Violations {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "amcastbench: %s: violation: %s\n", w.Name, v)
		}
	}
	return res, nil
}

// endToEndSet runs timedReps untraced repetitions and reports the median
// of every end-to-end metric over them.
//
// Set-up is short and its time moves with the machine's mood for half a
// minute at a time, so it is sampled more often than the timed schedule and
// all through the run: each repetition is followed by children that stop
// after the warm-up. Set-up that takes longer than steadySetup repeats well
// enough without.
func endToEndSet(req repRequest) ([]repResult, map[string]float64, error) {
	var reps, setups []repResult
	for i := 0; i < timedReps; i++ {
		req.Rep, req.SetupOnly = i, false
		rep, err := runChild(req)
		if err != nil {
			return nil, nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		reps = append(reps, rep)
		setups = append(setups, rep)
		for k := 0; k < setupExtras && rep.Values["setup_s"] < steadySetup.Seconds(); k++ {
			req.SetupOnly = true
			extra, err := runChild(req)
			if err != nil {
				return nil, nil, fmt.Errorf("set-up repetition: %w", err)
			}
			setups = append(setups, extra)
		}
	}
	metrics := map[string]float64{}
	for _, m := range endToEnd {
		metrics[m.Name] = medianOf(reps, m.Name)
	}
	metrics["setup_s"] = medianOf(setups, "setup_s")
	return reps, metrics, nil
}

// tracedSet runs one untraced reference repetition, one traced repetition
// and the probes, and reports every per-layer metric.
func tracedSet(req repRequest, opt options) ([]repResult, map[string]float64, error) {
	ref, err := runChild(req)
	if err != nil {
		return nil, nil, fmt.Errorf("reference repetition: %w", err)
	}
	req.Traced, req.Rep = true, 1
	rep, err := runChild(req)
	if err != nil {
		return nil, nil, fmt.Errorf("traced repetition: %w", err)
	}
	extra, err := tracedExtras(opt, req.OutDir)
	if err != nil {
		return nil, nil, err
	}
	extra["driver.trace_overhead_pct"] = 100 * (ratio(rep.Values["cpu_ms_per_multicast"], ref.Values["cpu_ms_per_multicast"]) - 1)
	extra["driver.trace_overhead_p50_pct"] = 100 * (ratio(rep.Values["latency_p50_ms"], ref.Values["latency_p50_ms"]) - 1)
	metrics := map[string]float64{}
	for _, m := range perLayer {
		if v, ok := extra[m.Name]; ok {
			metrics[m.Name] = v
		} else {
			metrics[m.Name] = rep.Values[m.Name]
		}
	}
	return []repResult{rep}, metrics, nil
}

// tracedExtras gathers the per-layer numbers that do not come from the
// traced repetition itself: the CPU profile's shares, the direct probes
// and the known-failing Generic-burst probe.
func tracedExtras(opt options, outDir string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(exe, filepath.Join(outDir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	extra, err := runProbes(opt.Seed, outDir, 1)
	if err != nil {
		return nil, err
	}
	for layer, share := range shares {
		extra[layer+".cpu_share"] = share
	}
	burst, err := runChild(repRequest{Spec: genericBurst, Seed: opt.Seed, RepSeconds: 1, OutDir: outDir})
	if err != nil {
		return nil, fmt.Errorf("generic-burst probe: %w", err)
	}
	extra["core.generic_burst_undelivered"] = float64(burst.Pairs) - burst.Values["driver.samples"]
	return extra, nil
}

// medianOf is the median of one named value over repetitions.
func medianOf(reps []repResult, name string) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.Values[name]
	}
	return median(xs)
}

// print writes the run as a table a person can read and, as the last
// line, the one JSON object a harness reads.
func (r result) print(w *os.File) {
	set, defs := "end-to-end", endToEnd
	if r.Traced {
		set, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "\n== %s · %s · stream_digest %s · %d reps · %d pairs attempted, %d failed\n",
		r.Workload, set, r.Digest, len(r.Reps), r.Attempted, r.Failed)
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]map[string]any{}}
	for _, m := range defs {
		v := r.Metrics[m.Name]
		line := fmt.Sprintf("%-36s %14.6g %-6s", m.Name, v, m.Unit)
		if !r.Traced {
			var reps []string
			for _, rep := range r.Reps {
				reps = append(reps, fmt.Sprintf("%.6g", rep.Values[m.Name]))
			}
			line += fmt.Sprintf(" reps [%s] bound %.1f%% (%s is better)", strings.Join(reps, " "), 100*m.Bound, m.Better)
		}
		fmt.Fprintln(w, line)
		out.Metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}

// runChild runs one repetition in a fresh process and reads its result.
func runChild(req repRequest) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	// A child that outlives its schedule, its drain deadline and a
	// generous allowance for set-up and checking is killed, not awaited.
	limit := time.Duration(req.RepSeconds*float64(time.Second)) + drainTimeout + 60*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	req.StartedUnixNano = time.Now().UnixNano()
	in, err := json.Marshal(req)
	if err != nil {
		return repResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child")
	// A child must not outlive a driver that is killed from outside.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdin = bytes.NewReader(in)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("child: %w\n%s", err, stderr.Bytes())
	}
	var rep repResult
	if err := json.Unmarshal(out, &rep); err != nil {
		return repResult{}, fmt.Errorf("child result: %w", err)
	}
	return rep, nil
}

// childMain is the -child entry: one repetition, request on stdin, result
// on stdout.
func childMain() int {
	var req repRequest
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		fmt.Fprintln(os.Stderr, "amcastbench child: bad request:", err)
		return 2
	}
	rep, err := runRep(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amcastbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "amcastbench child:", err)
		return 1
	}
	return 0
}

// selfCheck runs the end-to-end set twice with the same binary and seed
// and prints, per (workload, metric), both medians, their relative
// difference and PASS or FAIL against the metric's bound: the check that
// the benchmark can resolve a change as large as the bound it states.
func selfCheck(run []spec, opt options) int {
	sets := make([]map[string]result, 2)
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range run {
			res, err := runWorkload(w, opt, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "amcastbench: selfcheck set %d: %s: %v\n", i+1, w.Name, err)
				return 1
			}
			sets[i][w.Name] = res
		}
	}
	status := 0
	fmt.Printf("%-13s %-26s %12s %12s %8s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range run {
		for _, m := range endToEnd {
			a, b := sets[0][w.Name].Metrics[m.Name], sets[1][w.Name].Metrics[m.Name]
			worse := ratio(b-a, a)
			if m.Better == higher {
				worse = -worse
			}
			verdict := "PASS"
			if worse > m.Bound {
				verdict, status = "FAIL", 1
			}
			fmt.Printf("%-13s %-26s %12.6g %12.6g %+7.2f%% %6.1f%% %s\n", w.Name, m.Name, a, b, 100*ratio(b-a, a), 100*m.Bound, verdict)
		}
	}
	return status
}
