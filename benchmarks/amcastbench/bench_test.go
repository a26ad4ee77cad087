package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/net"
	"repro/internal/storage"
	"repro/internal/wire"
)

// testScale shrinks every schedule to 1/20: a repetition that lasts 4 s in
// a real run lasts 0.2 s here.
const testScale = 1.0 / 20

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestSamplesBeyondFloor(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {3000, 0.99, 30}, {480, 0.90, 48}, {480, 0.99, 4}, {100, 0.5, 50}} {
		if got := samplesBeyond(c.n, c.q); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got, want := supported(c.n, c.q), c.beyond >= minBeyond; got != want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, want)
		}
	}
	sorted := make([]float64, 480)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := tail(sorted, 0.99); got != 0 {
		t.Errorf("tail at an unsupported percentile = %v, want 0 (left out)", got)
	}
	if got := tail(sorted, 0.90); got != 432 {
		t.Errorf("tail(1..480, 0.90) = %v, want 432", got)
	}
}

func TestMedianOfReps(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
	reps := []repResult{
		{Values: map[string]float64{"x": 9}},
		{Values: map[string]float64{"x": 1}},
		{Values: map[string]float64{"x": 5}},
	}
	if got := medianOf(reps, "x"); got != 5 {
		t.Errorf("medianOf reps = %v, want 5", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesTables: BENCHMARK.json and the tables the program
// prints from name the same workloads and metrics, each once, with the
// same unit, direction and bound, inside the contract's limits.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n file %+v\ntable %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the table", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	once := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q, table has %q", i, bf.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		once(w.Name)
	}
	setup := false
	for _, m := range endToEnd {
		once(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		once(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"benchmarks/amcastbench"}) {
		t.Errorf("paths %v", bf.Paths)
	}
}

// TestStreamsOfMemAndTCPAreIdentical: steady-tcp differs from steady-mem in
// its transport alone.
func TestStreamsOfMemAndTCPAreIdentical(t *testing.T) {
	mem, _ := findWorkload("steady-mem")
	tcp, _ := findWorkload("steady-tcp")
	a, da, _, err := mem.arrivals(mem.scenario(4*testScale), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, db, _, err := tcp.arrivals(tcp.scenario(4*testScale), 7)
	if err != nil {
		t.Fatal(err)
	}
	if da != db || !reflect.DeepEqual(a, b) {
		t.Errorf("steady-mem and steady-tcp consume different streams (digests %s, %s)", da, db)
	}
	if want := time.Duration(4 * testScale * float64(time.Second)); a[len(a)-1].At != want {
		t.Errorf("last arrival at %v, want the schedule length %v", a[len(a)-1].At, want)
	}
	_, other, _, _ := mem.arrivals(mem.scenario(4*testScale), 8)
	if other == da {
		t.Error("two seeds gave one stream")
	}
}

func TestSimCountsRepeatExactly(t *testing.T) {
	a, err := simProbes(3, testScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simProbes(3, testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"core.sim_steps_per_delivery", "core.sim_msgs_per_delivery"} {
		if a[k] != b[k] || a[k] == 0 {
			t.Errorf("%s: %v then %v, want equal and non-zero", k, a[k], b[k])
		}
	}
}

func TestTransportDecoratorPassesThrough(t *testing.T) {
	plain, inner := net.New(3), net.New(3)
	defer plain.Close()
	defer inner.Close()
	tr := newTracer(3, time.Now())
	traced := &tracedTransport{Transport: inner, tr: tr}
	set := groups.NewProcSet(1, 2)
	for _, nw := range []net.Transport{plain, traced} {
		nw.Send(0, 1, wire.TTestLow, "unicast")
		nw.Broadcast(0, set, wire.TTestHigh, "broadcast")
	}
	for _, p := range []groups.Process{1, 2} {
		for len(plain.Inbox(p)) > 0 {
			want, got := <-plain.Inbox(p), <-inner.Inbox(p)
			if want != got {
				t.Errorf("p%d received %+v through the decorator, %+v without", p, got, want)
			}
		}
		if n := len(inner.Inbox(p)); n != 0 {
			t.Errorf("p%d: %d extra packets through the decorator", p, n)
		}
	}
	c := traced.counts()
	if c[wire.TTestLow] != 1 || c[wire.TTestHigh] != 2 {
		t.Errorf("counted %d unicast and %d broadcast packets, want 1 and 2", c[wire.TTestLow], c[wire.TTestHigh])
	}
	if n := len(tr.all()); n != 3 {
		t.Errorf("%d send spans, want 3", n)
	}
	if traced.N() != 3 || traced.Crashed(1) {
		t.Error("embedded methods do not reach the inner transport")
	}
}

// failingWAL fails every Sync.
type failingWAL struct {
	storage.WAL
	err error
}

func (f failingWAL) Sync() error { return f.err }

func TestWALDecoratorsPassThrough(t *testing.T) {
	mem := storage.NewMem()
	tr := newTracer(1, time.Now())
	var wal storage.WAL = &tracedWAL{WAL: &slowSyncWAL{WAL: mem, delay: time.Millisecond}, tr: tr}
	recs := []storage.Record{{Kind: 1, Data: []byte("a")}, {Kind: 2, Data: []byte("bc")}}
	for _, r := range recs {
		if err := wal.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if mem.Len() != 0 {
		t.Error("records durable before Sync")
	}
	start := time.Now()
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < time.Millisecond {
		t.Errorf("Sync took %v, want at least the stated 1ms", d)
	}
	var got []storage.Record
	if err := wal.Replay(func(r storage.Record) error {
		got = append(got, storage.Record{Kind: r.Kind, Data: append([]byte(nil), r.Data...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("replayed %v, appended %v", got, recs)
	}
	names := map[string]int{}
	for _, s := range tr.all() {
		names[s.Name]++
	}
	if names[spanAppend] != 2 || names[spanSync] != 1 {
		t.Errorf("spans %v, want 2 appends and 1 sync", names)
	}
	boom := errors.New("disk gone")
	wal = &tracedWAL{WAL: &slowSyncWAL{WAL: failingWAL{WAL: mem, err: boom}}, tr: tr}
	if err := wal.Sync(); !errors.Is(err, boom) {
		t.Errorf("Sync error %v, want %v", err, boom)
	}
}

func TestCPUSharesByInnermostLayerFrame(t *testing.T) {
	out := []byte(`File: amcastbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   internal/runtime/maps.(*Iter).Next
             runtime.mapIterNext
             repro/internal/logobj.(*Log).MessagesBefore (inline)
             repro/internal/core.(*Node).tryDeliver
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   slices.pdqsortCmpFunc[go.shape.struct { repro/internal/msg.ID }]
             main.runRep
`)
	shares, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"logobj": 0.6, "runtime": 0.2, "other": 0.2}
	for layer, share := range shares {
		if d := share - want[layer]; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share %v, want %v", layer, share, want[layer])
		}
	}
	if len(shares) != len(cpuLayers)+2 {
		t.Errorf("%d layers reported, want every one of %d", len(shares), len(cpuLayers)+2)
	}
}

// TestEveryMetricHasOneSource runs 1/20-scale repetitions and the probes and
// checks that each named metric is produced exactly once, by the child, the
// probes, the profile or the driver — and that the values the acceptance
// criteria pin down hold: wire counters zero on memory links, fast_share 0
// under all-conflict and high under the commuting mix, nothing failed.
func TestEveryMetricHasOneSource(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, traced bool) repResult {
		t.Helper()
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runRep(repRequest{Spec: w, Seed: 1, RepSeconds: 4 * testScale, Traced: traced, OutDir: dir, StartedUnixNano: time.Now().UnixNano()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || len(rep.Violations) != 0 {
			t.Fatalf("%s: %d pairs failed, violations %v", name, rep.Failed, rep.Violations)
		}
		return rep
	}
	rep := run("steady-mem", true)
	probes, err := runProbes(1, dir, testScale)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]int{
		"driver.trace_overhead_pct": 1, "driver.trace_overhead_p50_pct": 1, "core.generic_burst_undelivered": 1,
		"runtime.cpu_share": 1, "other.cpu_share": 1,
	}
	for _, l := range cpuLayers {
		sources[l+".cpu_share"]++
	}
	for k := range probes {
		sources[k]++
	}
	for k := range rep.Values {
		sources[k]++
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if sources[m.Name] != 1 {
			t.Errorf("%s has %d sources, want 1", m.Name, sources[m.Name])
		}
		delete(sources, m.Name)
	}
	for k := range sources {
		t.Errorf("%s is produced but not declared", k)
	}
	for k, v := range rep.Values {
		if strings.HasPrefix(k, "wire.") && v != 0 {
			t.Errorf("steady-mem: %s = %v on in-memory links, want 0", k, v)
		}
	}
	if rep.Values["core.fast_share"] != 0 {
		t.Errorf("steady-mem: fast_share %v under all-conflict, want 0", rep.Values["core.fast_share"])
	}
	if rep.Values["net.packets_per_mc.pax_accept"] == 0 || rep.Values["storage.sync_wait_ms_per_mc"] == 0 {
		t.Error("steady-mem traced: the decorators recorded nothing")
	}
	var trace struct {
		Columns []string `json:"columns"`
		Spans   [][]any  `json:"spans"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	if len(trace.Spans) < rep.Multicasts*2 || len(trace.Spans[0]) != len(trace.Columns) {
		t.Fatalf("trace.json: %d spans of %d columns for %d multicasts", len(trace.Spans), len(trace.Columns), rep.Multicasts)
	}
	for _, row := range trace.Spans {
		if row[0] != spanDeliver && row[0] != spanSubmit {
			continue
		}
		if parent := trace.Spans[int(row[3].(float64))]; parent[0] != spanMulticast || parent[5] != row[5] {
			t.Fatalf("%v span of message %v hangs off %v", row[0], row[5], parent)
		}
	}

	if fast := run("commute-mem", false).Values["core.fast_share"]; fast < 0.8 {
		t.Errorf("commute-mem: fast_share %v, want the commuting 90%% on the fast path", fast)
	}
	if out := run("steady-tcp", false).Values["wire.bytes_out_per_mc"]; out == 0 {
		t.Error("steady-tcp: no bytes on the wire")
	}
}

// TestPrintedResultNamesEachMetricOnce: the last line of a run is the one
// JSON object of the contract, with the set's metrics and nothing else.
func TestPrintedResultNamesEachMetricOnce(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		res := result{Workload: "steady-mem", Traced: traced, Correct: true, Attempted: 3, Metrics: map[string]float64{}}
		for i, m := range defs {
			res.Metrics[m.Name] = float64(i) + 0.5
		}
		f, err := os.Create(filepath.Join(t.TempDir(), "out"))
		if err != nil {
			t.Fatal(err)
		}
		res.print(f)
		f.Close()
		raw, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var got struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if !got.Correct || got.Attempted != 3 || got.Failed != 0 || len(got.Metrics) != len(defs) {
			t.Errorf("traced=%v: result %+v", traced, got)
		}
		for i, m := range defs {
			if g := got.Metrics[m.Name]; g.Unit != m.Unit || g.Value != float64(i)+0.5 {
				t.Errorf("%s printed as %+v", m.Name, g)
			}
			if n := strings.Count(string(raw), "\n"+m.Name+" "); n != 1 {
				t.Errorf("%s appears on %d table lines, want 1", m.Name, n)
			}
		}
	}
}
