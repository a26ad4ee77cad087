package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/groups"
	"repro/internal/msg"
)

// drain walks the whole stream of (sc, seed).
func drain(t *testing.T, sc Scenario, seed int64) []Arrival {
	t.Helper()
	g, err := NewGen(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []Arrival
	for {
		a, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// TestGenDeterminism pins the replayability contract: the same (scenario,
// seed) yields a bit-identical arrival stream, a different seed a different
// one, and the digest certifies both.
func TestGenDeterminism(t *testing.T) {
	for _, sc := range Catalog() {
		if sc.Topo.Kind == TopoWide && testing.Short() {
			continue // 20-group family enumeration is a full-tier cost
		}
		sc := sc.Scale(0.2) // the stream property is count-independent
		a := drain(t, sc, 7)
		b := drain(t, sc, 7)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same (scenario, seed) produced different streams", sc.Name)
		}
		c := drain(t, sc, 8)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 produced identical streams", sc.Name)
		}
		d1, err := Digest(sc, 7)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := Digest(sc, 7)
		if err != nil {
			t.Fatal(err)
		}
		d3, err := Digest(sc, 8)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("%s: digest not stable across reruns: %s vs %s", sc.Name, d1, d2)
		}
		if d1 == d3 {
			t.Fatalf("%s: digest blind to the seed: %s", sc.Name, d1)
		}
	}
}

// TestArrivalsAreValid checks every stream entry against the closed
// dissemination model: monotone intended times (strictly, unless the
// scenario is a burst), destination in range, and the sender a member of
// its destination group.
func TestArrivalsAreValid(t *testing.T) {
	for _, sc := range Catalog() {
		if sc.Topo.Kind == TopoWide && testing.Short() {
			continue
		}
		g, err := NewGen(sc, 3)
		if err != nil {
			t.Fatal(err)
		}
		topo := g.Topology()
		var prev time.Duration
		n := 0
		for {
			a, ok := g.Next()
			if !ok {
				break
			}
			n++
			if a.At < prev || (a.At == prev && sc.Arrivals != ArrivalsBurst) {
				t.Fatalf("%s: intended times not strictly increasing: %v after %v", sc.Name, a.At, prev)
			}
			prev = a.At
			if int(a.Dst) < 0 || int(a.Dst) >= topo.NumGroups() {
				t.Fatalf("%s: destination g%d outside [0,%d)", sc.Name, a.Dst, topo.NumGroups())
			}
			if !topo.Group(a.Dst).Has(a.Src) {
				t.Fatalf("%s: sender p%d not a member of destination g%d", sc.Name, a.Src, a.Dst)
			}
		}
		if n != sc.Count {
			t.Fatalf("%s: stream carried %d arrivals, scenario says %d", sc.Name, n, sc.Count)
		}
	}
}

// TestPoissonMeanRate checks the open-loop clock: the mean inter-arrival
// gap of a Poisson stream matches 1/rate, and a fixed stream is exact.
func TestPoissonMeanRate(t *testing.T) {
	base := Scenario{
		Name: "t", Topo: TopoSpec{Kind: TopoChain, Groups: 3},
		Rate: 1000, Count: 20000, ConflictRate: 1,
	}
	pois := base
	pois.Arrivals = ArrivalsPoisson
	as := drain(t, pois, 5)
	span := as[len(as)-1].At.Seconds()
	mean := span / float64(len(as))
	if math.Abs(mean-1e-3) > 5e-5 { // 5% tolerance on 20k draws
		t.Fatalf("poisson mean inter-arrival %v, want ~1ms", mean)
	}
	fixed := base
	fixed.Arrivals = ArrivalsFixed
	fs := drain(t, fixed, 5)
	for i, a := range fs {
		want := time.Duration(float64(i+1) * float64(time.Millisecond))
		if d := a.At - want; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("fixed arrival %d at %v, want %v", i, a.At, want)
		}
	}
}

// TestRampAccelerates checks the ramp shape: with RampTo = 16x Rate the
// last tenth of a fixed-rate stream is packed much tighter than the first.
func TestRampAccelerates(t *testing.T) {
	sc := Scenario{
		Name: "t", Topo: TopoSpec{Kind: TopoChain, Groups: 3},
		Arrivals: ArrivalsFixed, Rate: 100, RampTo: 1600, Count: 1000,
		ConflictRate: 1,
	}
	as := drain(t, sc, 1)
	tenth := len(as) / 10
	head := as[tenth].At - as[0].At
	tail := as[len(as)-1].At - as[len(as)-1-tenth].At
	if tail*4 > head {
		t.Fatalf("ramp did not accelerate: first tenth %v, last tenth %v", head, tail)
	}
}

// TestZipfMatchesAnalytic compares empirical destination frequencies under
// pure Zipf skew against the analytic distribution p(j) ∝ 1/(j+1)^s.
func TestZipfMatchesAnalytic(t *testing.T) {
	const k, s, n = 8, 1.1, 200000
	sc := Scenario{
		Name: "t", Topo: TopoSpec{Kind: TopoRing, Groups: k},
		Arrivals: ArrivalsPoisson, Rate: 1000, Count: n,
		ZipfS: s, ConflictRate: 1,
	}
	counts := make([]int, k)
	for _, a := range drain(t, sc, 11) {
		counts[a.Dst]++
	}
	z := newZipfSampler(k, s)
	for j := 0; j < k; j++ {
		want := z.prob(j) // HotGroup 0: rank j is group j
		got := float64(counts[j]) / n
		if math.Abs(got-want) > 0.1*want+0.002 {
			t.Fatalf("group %d frequency %.4f, analytic %.4f", j, got, want)
		}
	}
	if !(counts[0] > counts[3] && counts[3] > counts[7]) {
		t.Fatalf("zipf skew not monotone: %v", counts)
	}
}

// TestHotShare checks the hot-group knob: the pinned share lands on the hot
// group on top of its skew mass.
func TestHotShare(t *testing.T) {
	const k, n = 4, 100000
	sc := Scenario{
		Name: "t", Topo: TopoSpec{Kind: TopoChain, Groups: k},
		Arrivals: ArrivalsPoisson, Rate: 1000, Count: n,
		HotGroup: 2, HotShare: 0.5, ConflictRate: 1,
	}
	counts := make([]int, k)
	for _, a := range drain(t, sc, 13) {
		counts[a.Dst]++
	}
	// 50% pinned + 1/4 of the uniform remainder = 62.5%.
	got := float64(counts[2]) / n
	if math.Abs(got-0.625) > 0.02 {
		t.Fatalf("hot group took %.4f of the load, want ~0.625 (counts %v)", got, counts)
	}
}

// TestConflictMix checks the class tagging: an all-conflict stream is
// ClassAll throughout; a mixed stream splits between keyed classes and
// ClassFree at the configured rate.
func TestConflictMix(t *testing.T) {
	base := Scenario{
		Name: "t", Topo: TopoSpec{Kind: TopoChain, Groups: 3},
		Arrivals: ArrivalsPoisson, Rate: 1000, Count: 50000,
	}
	all := base
	all.ConflictRate = 1
	for _, a := range drain(t, all, 2) {
		if a.Class != msg.ClassAll {
			t.Fatalf("all-conflict stream carried class %d", a.Class)
		}
	}
	mix := base
	mix.ConflictRate = 0.3
	mix.ConflictKeys = 4
	keyed, free := 0, 0
	seenKeys := map[msg.Class]bool{}
	for _, a := range drain(t, mix, 2) {
		switch {
		case a.Class == msg.ClassFree:
			free++
		case a.Class >= 1 && a.Class <= 4:
			keyed++
			seenKeys[a.Class] = true
		default:
			t.Fatalf("mixed stream carried class %d outside the keyed space", a.Class)
		}
	}
	frac := float64(keyed) / float64(keyed+free)
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("keyed fraction %.4f, want ~0.3", frac)
	}
	if len(seenKeys) != 4 {
		t.Fatalf("keyed classes used: %v, want all 4", seenKeys)
	}
}

// TestTopoSpecsBuildValidFamilies sweeps the generator kinds and checks the
// emitted families: right group count, valid membership (groups.New
// enforces bounds), and the overlap structure each kind promises.
func TestTopoSpecsBuildValidFamilies(t *testing.T) {
	kinds := []struct {
		spec       TopoSpec
		procs      int
		wantCyclic bool
	}{
		{TopoSpec{Kind: TopoChain, Groups: 4}, 9, false},
		{TopoSpec{Kind: TopoChain, Groups: 10}, 21, false},
		{TopoSpec{Kind: TopoRing, Groups: 3}, 3, true},
		{TopoSpec{Kind: TopoRing, Groups: 8}, 8, true},
		{TopoSpec{Kind: TopoDisjoint, Groups: 6}, 18, false},
		{TopoSpec{Kind: TopoWide, Groups: 8}, 12, true},
		{TopoSpec{Kind: TopoWide, Groups: 12}, 18, true},
	}
	for _, k := range kinds {
		topo, err := k.spec.Build()
		if err != nil {
			t.Fatalf("%s/%d: %v", k.spec.Kind, k.spec.Groups, err)
		}
		if got := topo.NumGroups(); got != k.spec.Groups {
			t.Fatalf("%s: built %d groups, want %d", k.spec.Kind, got, k.spec.Groups)
		}
		if got := topo.NumProcesses(); got != k.procs {
			t.Fatalf("%s/%d: built %d processes, want %d", k.spec.Kind, k.spec.Groups, got, k.procs)
		}
		if got := topo.HasCyclicFamilies(); got != k.wantCyclic {
			t.Fatalf("%s/%d: cyclic families = %v, want %v", k.spec.Kind, k.spec.Groups, got, k.wantCyclic)
		}
		// Derived process count must match what Build produced, and a spec
		// that pins the right count must also build.
		if n, err := k.spec.DerivedProcesses(); err != nil || n != k.procs {
			t.Fatalf("%s/%d: DerivedProcesses = %d, %v", k.spec.Kind, k.spec.Groups, n, err)
		}
		pinned := k.spec
		pinned.Processes = k.procs
		if _, err := pinned.Build(); err != nil {
			t.Fatalf("%s: pinned process count rejected: %v", k.spec.Kind, err)
		}
	}

	// Invalid specs must be refused, not improvised.
	bad := []TopoSpec{
		{Kind: "torus", Groups: 4},
		{Kind: TopoRing, Groups: 2},
		{Kind: TopoWide, Groups: 4},
		{Kind: TopoChain, Groups: 0},
		{Kind: TopoChain, Groups: 4, Processes: 8}, // chain/4 needs 9
	}
	for _, spec := range bad {
		if _, err := spec.Build(); err == nil {
			t.Fatalf("spec %+v built a topology, want error", spec)
		}
	}
}

// TestWideTopologyMixesOverlap checks the wide kind's shape claim: a cyclic
// core, acyclic overlapping chain, a bridge between the regions, and at
// least one fully disjoint group pair.
func TestWideTopologyMixesOverlap(t *testing.T) {
	k := 12
	if !testing.Short() {
		k = 20 // the catalog size; family enumeration ~0.7s
	}
	topo, err := TopoSpec{Kind: TopoWide, Groups: k}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !topo.HasCyclicFamilies() {
		t.Fatal("wide topology has no cyclic family")
	}
	c := wideRingCore(k)
	// Bridge: the first chain group intersects some ring group.
	bridged := false
	for _, h := range topo.IntersectingGroups(groups.GroupID(c)) {
		if int(h) < c {
			bridged = true
		}
	}
	if !bridged {
		t.Fatal("first chain group is disconnected from the ring core")
	}
	// Disjointness exists too: the first ring group and the last chain group
	// share nothing.
	if topo.Intersecting(groups.GroupID(0), groups.GroupID(k-1)) {
		t.Fatal("wide topology has no disjoint pair")
	}
}

// TestScenarioJSONRoundTrip pins serializability: the catalog survives a
// marshal/unmarshal cycle unchanged, and Read validates what it parses.
func TestScenarioJSONRoundTrip(t *testing.T) {
	cat := Catalog()
	blob, err := json.Marshal(cat)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cat, back) {
		t.Fatalf("catalog did not round-trip:\n got %+v\nwant %+v", back, cat)
	}
	if _, err := Read(bytes.NewReader([]byte(`[{"name":"x","arrivals":"poisson"}]`))); err == nil {
		t.Fatal("invalid scenario (rate 0) passed Read")
	}
	if _, err := Read(bytes.NewReader([]byte(`[{"nmae":"typo"}]`))); err == nil {
		t.Fatal("unknown field passed Read")
	}
}

// TestSelect resolves name lists against the catalog.
func TestSelect(t *testing.T) {
	cat := Catalog()
	all, err := Select(cat, "all")
	if err != nil || len(all) != len(cat) {
		t.Fatalf("Select(all) = %d scenarios, %v", len(all), err)
	}
	two, err := Select(cat, "hot-group, steady")
	if err != nil || len(two) != 2 || two[0].Name != "hot-group" || two[1].Name != "steady" {
		t.Fatalf("Select(hot-group, steady) = %+v, %v", two, err)
	}
	if _, err := Select(cat, "nope"); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

// TestScale pins the count-scaling helper.
func TestScale(t *testing.T) {
	sc := Catalog()[0]
	if got := sc.Scale(0.5).Count; got != sc.Count/2 {
		t.Fatalf("Scale(0.5): count %d, want %d", got, sc.Count/2)
	}
	if got := sc.Scale(0).Count; got != sc.Count {
		t.Fatalf("Scale(0) must be a no-op, got count %d", got)
	}
	tiny := sc
	tiny.Count = 1
	if got := tiny.Scale(0.1).Count; got != 1 {
		t.Fatalf("Scale floor: count %d, want 1", got)
	}
}

// TestCatalogDigestsGolden pins the seed-1 stream of every scenario that
// existed before the burst arrival process to the digest the generator
// produced then (read off commit 4ef326c; steady and hot-group are also in
// the committed BENCH_scenarios.json). A new arrival process, field or
// catalog row must move none of them.
func TestCatalogDigestsGolden(t *testing.T) {
	golden := map[string]string{
		"steady":    "f828567cd3cd157d",
		"hot-group": "4583e0df4a80663f",
		"convoy":    "29eefd1da2dfa9fe",
		"ramp":      "fa3e65803ebfefc1",
		"wide":      "a772f62e7727ddda",
		"soak":      "c5c03f38a1b3f932",
	}
	seen := 0
	for _, sc := range Catalog() {
		want, ok := golden[sc.Name]
		if !ok {
			continue
		}
		seen++
		if sc.Topo.Kind == TopoWide && testing.Short() {
			continue // 20-group family enumeration is a full-tier cost
		}
		got, err := Digest(sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("scenario %s at seed 1: digest %s, golden %s — an existing stream moved", sc.Name, got, want)
		}
	}
	if seen != len(golden) {
		t.Errorf("catalog holds %d of the %d golden scenarios", seen, len(golden))
	}
}

// TestBurstArrivals pins the burst process: every arrival is due at t = 0,
// destinations, senders and classes are drawn as for any other process, and
// a rate is neither needed nor used.
func TestBurstArrivals(t *testing.T) {
	sc := Scenario{
		Name:     "b",
		Topo:     TopoSpec{Kind: TopoChain, Groups: 2},
		Arrivals: ArrivalsBurst, Count: 300,
		ConflictRate: 0.5,
	}
	arr := drain(t, sc, 1)
	if len(arr) != sc.Count {
		t.Fatalf("burst emitted %d arrivals, want %d", len(arr), sc.Count)
	}
	dsts := map[groups.GroupID]int{}
	free := 0
	for i, a := range arr {
		if a.At != 0 {
			t.Fatalf("arrival %d due at %v, want 0", i, a.At)
		}
		dsts[a.Dst]++
		if a.Class == msg.ClassFree {
			free++
		}
	}
	if len(dsts) != 2 || free == 0 || free == sc.Count {
		t.Fatalf("burst stream is degenerate: destinations %v, %d of %d commuting", dsts, free, sc.Count)
	}
	withRate := sc
	withRate.Rate = 1234
	a, _ := Digest(sc, 1)
	b, _ := Digest(withRate, 1)
	if a != b {
		t.Fatalf("rate moved a burst stream: %s vs %s", a, b)
	}
	bad := sc
	bad.Arrivals = "trickle"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown arrival process passed Validate")
	}
}

// TestEnvironmentFieldsStayOutOfDigest checks chaos_seed and wal describe
// where a stream runs, not the stream: they change no arrival, so rows that
// differ only in them share a digest, as mem and tcp rows do.
func TestEnvironmentFieldsStayOutOfDigest(t *testing.T) {
	plain := Catalog()[0]
	want, err := Digest(plain, 1)
	if err != nil {
		t.Fatal(err)
	}
	env := plain
	env.ChaosSeed = 3
	env.WAL = WALFile
	got, err := Digest(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("chaos_seed/wal entered the digest: %s vs %s", got, want)
	}
	if plain.WALMode() != WALMem || env.WALMode() != WALFile {
		t.Fatalf("WALMode: %q and %q", plain.WALMode(), env.WALMode())
	}
	env.WAL = "tape"
	if err := env.Validate(); err == nil {
		t.Fatal("unknown wal backing passed Validate")
	}
}
