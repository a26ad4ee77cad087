package check

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/groups"
	"repro/internal/msg"
)

// fixture builds a two-group trace skeleton: g0 = {p0,p1}, g1 = {p1,p2}.
type fixture struct {
	topo *groups.Topology
	reg  *msg.Registry
	m1   *msg.Message // → g0
	m2   *msg.Message // → g1
}

func newFixture() *fixture {
	topo := groups.MustNew(3,
		groups.NewProcSet(0, 1),
		groups.NewProcSet(1, 2),
	)
	reg := msg.NewRegistry()
	return &fixture{
		topo: topo,
		reg:  reg,
		m1:   reg.New(0, 0, nil),
		m2:   reg.New(1, 1, nil),
	}
}

func (f *fixture) trace() *Trace {
	return &Trace{
		Topo:           f.topo,
		Pat:            failure.NewPattern(3),
		Reg:            f.reg,
		LocalOrder:     map[groups.Process][]msg.ID{},
		Multicast:      map[msg.ID]failure.Time{f.m1.ID: 0, f.m2.ID: 0},
		FirstDelivered: map[msg.ID]failure.Time{},
	}
}

func TestIntegrityCatchesDoubleDelivery(t *testing.T) {
	f := newFixture()
	tr := f.trace()
	tr.LocalOrder[0] = []msg.ID{f.m1.ID, f.m1.ID}
	tr.FirstDelivered[f.m1.ID] = 1
	if v := Integrity(tr); v == nil {
		t.Fatalf("double delivery not caught")
	}
}

func TestIntegrityCatchesWrongDestination(t *testing.T) {
	f := newFixture()
	tr := f.trace()
	tr.LocalOrder[2] = []msg.ID{f.m1.ID} // p2 ∉ g0
	tr.FirstDelivered[f.m1.ID] = 1
	if v := Integrity(tr); v == nil {
		t.Fatalf("delivery outside destination not caught")
	}
}

func TestIntegrityCatchesPhantomMessage(t *testing.T) {
	f := newFixture()
	tr := f.trace()
	ghost := f.reg.New(0, 0, nil)
	tr.LocalOrder[0] = []msg.ID{ghost.ID} // never multicast
	tr.FirstDelivered[ghost.ID] = 1
	if v := Integrity(tr); v == nil {
		t.Fatalf("phantom delivery not caught")
	}
}

func TestTerminationCatchesMissingDelivery(t *testing.T) {
	f := newFixture()
	tr := f.trace()
	// m1 delivered at p0 but not at correct p1 ∈ g0.
	tr.LocalOrder[0] = []msg.ID{f.m1.ID}
	tr.FirstDelivered[f.m1.ID] = 1
	if v := Termination(tr); v == nil {
		t.Fatalf("missing delivery not caught")
	}
	// Completing the delivery fixes it (m2: faulty sender, never delivered,
	// no obligation).
	tr.LocalOrder[1] = []msg.ID{f.m1.ID}
	tr.Pat = failure.NewPattern(3).WithCrash(1, 5)
	if v := Termination(tr); v != nil {
		t.Fatalf("unexpected: %v", v)
	}
}

func TestTerminationFaultySenderNoObligation(t *testing.T) {
	f := newFixture()
	tr := f.trace()
	tr.Pat = failure.NewPattern(3).WithCrash(0, 5) // src(m1) faulty
	delete(tr.Multicast, f.m2.ID)                  // only m1 in this run
	if v := Termination(tr); v != nil {
		t.Fatalf("faulty undelivered sender should carry no obligation: %v", v)
	}
}

func TestOrderingCatchesTwoProcessCycle(t *testing.T) {
	f := newFixture()
	// Third message to g0 so p0 and p1 can disagree.
	m3 := f.reg.New(1, 0, nil)
	tr := f.trace()
	tr.Multicast[m3.ID] = 0
	tr.LocalOrder[0] = []msg.ID{f.m1.ID, m3.ID}
	tr.LocalOrder[1] = []msg.ID{m3.ID, f.m1.ID}
	tr.FirstDelivered[f.m1.ID] = 1
	tr.FirstDelivered[m3.ID] = 1
	if v := Ordering(tr); v == nil {
		t.Fatalf("↦ cycle not caught")
	}
	if v := PairwiseOrdering(tr); v == nil {
		t.Fatalf("pairwise violation not caught")
	}
}

func TestOrderingCatchesNeverDeliveredEdge(t *testing.T) {
	// m↦m' also holds when p delivers m and never m'. Build a cycle:
	// p0 delivers m1, never m3; p1 delivers m3, never m1.
	f := newFixture()
	m3 := f.reg.New(1, 0, nil)
	tr := f.trace()
	tr.Multicast[m3.ID] = 0
	tr.LocalOrder[0] = []msg.ID{f.m1.ID}
	tr.LocalOrder[1] = []msg.ID{m3.ID}
	tr.FirstDelivered[f.m1.ID] = 1
	tr.FirstDelivered[m3.ID] = 1
	if v := Ordering(tr); v == nil {
		t.Fatalf("cycle through never-delivered edges not caught")
	}
}

func TestOrderingAcceptsAgreement(t *testing.T) {
	f := newFixture()
	m3 := f.reg.New(1, 0, nil)
	tr := f.trace()
	tr.Multicast[m3.ID] = 0
	tr.LocalOrder[0] = []msg.ID{f.m1.ID, m3.ID}
	tr.LocalOrder[1] = []msg.ID{f.m1.ID, m3.ID}
	tr.FirstDelivered[f.m1.ID] = 1
	tr.FirstDelivered[m3.ID] = 2
	if v := Ordering(tr); v != nil {
		t.Fatalf("unexpected: %v", v)
	}
	if v := PairwiseOrdering(tr); v != nil {
		t.Fatalf("unexpected: %v", v)
	}
}

// TestPairwiseOrderingOnLongLogs: a soak-sized replicated log (five replicas,
// 25k entries, each lagging the next a little) is checked in memory
// proportional to it, and one inversion at a laggard's tail is still found.
func TestPairwiseOrderingOnLongLogs(t *testing.T) {
	const n = 25000
	tr := &Trace{LocalOrder: make(map[groups.Process][]msg.ID)}
	for p := 0; p < 5; p++ {
		for i := 1; i <= n-p; i++ {
			tr.LocalOrder[groups.Process(p)] = append(tr.LocalOrder[groups.Process(p)], msg.ID(i))
		}
	}
	if v := PairwiseOrdering(tr); v != nil {
		t.Fatalf("unexpected: %v", v)
	}
	tail := tr.LocalOrder[4]
	tail[len(tail)-1], tail[len(tail)-2] = tail[len(tail)-2], tail[len(tail)-1]
	if v := PairwiseOrdering(tr); v == nil {
		t.Fatalf("inversion at the tail of p4's log not caught")
	}
}

// TestStrictOrderingDistinguishesRealTime: a trace where the plain delivery
// relation is acyclic but ↦ ∪ ⇝ has a cycle — the distinction §6.1 is
// about. m1 (→g0) is delivered before m2 is multicast (m1 ⇝ m2), yet p1
// delivers m2 before m1.
func TestStrictOrderingDistinguishesRealTime(t *testing.T) {
	f := newFixture()
	tr := f.trace()
	tr.Multicast[f.m1.ID] = 0
	tr.Multicast[f.m2.ID] = 50 // m2 requested after m1's delivery below
	tr.LocalOrder[0] = []msg.ID{f.m1.ID}
	tr.LocalOrder[1] = []msg.ID{f.m2.ID, f.m1.ID} // p1 ∈ g0∩g1 delivers m2 first
	tr.LocalOrder[2] = []msg.ID{f.m2.ID}
	tr.FirstDelivered[f.m1.ID] = 10
	tr.FirstDelivered[f.m2.ID] = 60
	if v := Ordering(tr); v != nil {
		t.Fatalf("plain ordering should hold: %v", v)
	}
	v := StrictOrdering(tr)
	if v == nil {
		t.Fatalf("↦ ∪ ⇝ cycle not caught")
	}
	if strings.Contains(v.Detail, "-") {
		t.Fatalf("the cycle reported names a virtual node of ⇝'s chain: %v", v)
	}
}

// randomTrace builds a run over np processes and a few random groups in
// which every process delivers, in one global order, the messages addressed
// to it — then breaks it the ways runs break: a duplicate delivery, a
// swapped pair, a delivery missing at one process. Request times precede
// first deliveries, in the order messages were requested, except where a
// message sits out a while before it is requested.
func randomTrace(rng *rand.Rand) *Trace {
	np := 2 + rng.Intn(4)
	var gs []groups.ProcSet
	for len(gs) < 1+rng.Intn(4) {
		var g groups.ProcSet
		for p := 0; p < np; p++ {
			if rng.Intn(2) == 0 {
				g = g.Add(groups.Process(p))
			}
		}
		if !g.Empty() {
			gs = append(gs, g)
		}
	}
	topo := groups.MustNew(np, gs...)
	reg := msg.NewRegistry()
	tr := &Trace{
		Topo:           topo,
		Pat:            failure.NewPattern(np),
		Reg:            reg,
		LocalOrder:     map[groups.Process][]msg.ID{},
		Multicast:      map[msg.ID]failure.Time{},
		FirstDelivered: map[msg.ID]failure.Time{},
	}
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		g := groups.GroupID(rng.Intn(len(gs)))
		mem := topo.Group(g).Members()
		m := reg.New(mem[rng.Intn(len(mem))], g, nil)
		tr.Multicast[m.ID] = failure.Time(10*i + rng.Intn(15))
	}
	order := rng.Perm(n)
	for p := 0; p < np; p++ {
		var seq []msg.ID
		for _, i := range order {
			m := reg.Get(msg.ID(i + 1))
			if topo.Group(m.Dst).Has(groups.Process(p)) {
				seq = append(seq, m.ID)
			}
		}
		if len(seq) > 0 && rng.Intn(4) == 0 {
			seq = append(seq, seq[rng.Intn(len(seq))]) // duplicate delivery
		}
		if len(seq) > 1 && rng.Intn(3) == 0 {
			i := rng.Intn(len(seq) - 1) // swapped pair
			seq[i], seq[i+1] = seq[i+1], seq[i]
		}
		if len(seq) > 0 && rng.Intn(4) == 0 {
			i := rng.Intn(len(seq)) // missing delivery
			seq = append(seq[:i:i], seq[i+1:]...)
		}
		tr.LocalOrder[groups.Process(p)] = seq
		for k, id := range seq {
			at := tr.Multicast[id] + failure.Time(1+k+rng.Intn(20))
			if t, ok := tr.FirstDelivered[id]; !ok || at < t {
				tr.FirstDelivered[id] = at
			}
		}
	}
	if rng.Intn(8) == 0 {
		// Evidence no run produces: a message first delivered before its
		// own request, which ⇝ does not relate to itself.
		id := msg.ID(1 + rng.Intn(n))
		if at, ok := tr.FirstDelivered[id]; ok {
			tr.Multicast[id] = at + failure.Time(1+rng.Intn(20))
		}
	}
	return tr
}

// quadraticRealTime is ⇝ as StrictOrdering used to list it, one edge per
// pair: the oracle realTimeEdges is held against.
func quadraticRealTime(tr *Trace) []edge {
	var rt []edge
	for m, dt := range tr.FirstDelivered {
		for mp, reqt := range tr.Multicast {
			if m == mp {
				continue
			}
			if _, deliveredToo := tr.FirstDelivered[mp]; !deliveredToo {
				continue
			}
			if dt < reqt {
				rt = append(rt, edge{m, mp})
			}
		}
	}
	return rt
}

// closure returns the transitive closure of edges over the n messages and
// up to n virtual nodes (IDs -1 … -n, index n+1 … 2n), as reachability
// between messages.
func closure(edges []edge, n int) [][]bool {
	at := func(id msg.ID) int {
		if id < 0 {
			return n - int(id)
		}
		return int(id)
	}
	r := make([][]bool, 2*n+1)
	for i := range r {
		r[i] = make([]bool, 2*n+1)
	}
	for _, e := range edges {
		r[at(e.from)][at(e.to)] = true
	}
	for k := 1; k <= 2*n; k++ {
		for i := 1; i <= 2*n; i++ {
			for j := 1; j <= 2*n; j++ {
				r[i][j] = r[i][j] || r[i][k] && r[k][j]
			}
		}
	}
	return r[:n+1]
}

// edgeList lists a relation's edges.
func edgeList(edges map[edge]groups.Process) []edge {
	var out []edge
	for e := range edges {
		out = append(out, e)
	}
	return out
}

// sameClosure fails the test where the closures of want and got differ
// between two messages.
func sameClosure(t *testing.T, trial int, what string, want, got []edge, tr *Trace) {
	t.Helper()
	n := tr.Reg.Len()
	w, g := closure(want, n), closure(got, n)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if w[i][j] != g[i][j] {
				t.Fatalf("trial %d: %s: the new edges say m%d reaches m%d is %v, the quadratic ones %v\norders %v, requests %v, first deliveries %v",
					trial, what, i, j, g[i][j], w[i][j], tr.LocalOrder, tr.Multicast, tr.FirstDelivered)
			}
		}
	}
}

// TestOrderingMatchesQuadraticOracle: the chain orderEdges builds has the
// transitive closure of the full relation deliveryEdges builds, and the
// virtual chain realTimeEdges builds that of ⇝ listed pair by pair, so
// Ordering and StrictOrdering reach the verdicts the quadratic builders
// reach — on runs that agree, on runs with a duplicate delivery, a swapped
// pair or a missing delivery, and on evidence of a message delivered before
// its own request.
func TestOrderingMatchesQuadraticOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var cycles, strictCycles, acyclic int
	for trial := 0; trial < 5000; trial++ {
		tr := randomTrace(rng)
		full, chain := deliveryEdges(tr), orderEdges(tr)
		for e := range chain {
			if _, ok := full[e]; !ok {
				t.Fatalf("trial %d: chain edge m%d→m%d is not an edge of ↦", trial, e.from, e.to)
			}
		}
		rt := quadraticRealTime(tr)
		sameClosure(t, trial, "↦", edgeList(full), edgeList(chain), tr)
		sameClosure(t, trial, "⇝", rt, realTimeEdges(tr), tr)
		sameClosure(t, trial, "↦ ∪ ⇝", append(edgeList(full), rt...), append(edgeList(chain), realTimeEdges(tr)...), tr)
		wantCycle := findCycle(full, nil) != nil
		if gotCycle := Ordering(tr) != nil; gotCycle != wantCycle {
			t.Fatalf("trial %d: Ordering reports a cycle: %v; the quadratic relation: %v\norders %v",
				trial, gotCycle, wantCycle, tr.LocalOrder)
		}
		wantStrict := findCycle(full, rt) != nil
		if gotStrict := StrictOrdering(tr) != nil; gotStrict != wantStrict {
			t.Fatalf("trial %d: StrictOrdering reports a cycle: %v; the quadratic relation: %v\norders %v",
				trial, gotStrict, wantStrict, tr.LocalOrder)
		}
		switch {
		case wantCycle:
			cycles++
		case wantStrict:
			strictCycles++
		default:
			acyclic++
		}
	}
	if cycles == 0 || strictCycles == 0 || acyclic == 0 {
		t.Fatalf("the traces did not exercise every verdict: %d cycles of ↦, %d of ↦ ∪ ⇝ only, %d acyclic",
			cycles, strictCycles, acyclic)
	}
}

func TestMinimalityCatchesBusyOutsider(t *testing.T) {
	f := newFixture()
	tr := f.trace()
	tr.LocalOrder[0] = []msg.ID{f.m1.ID}
	tr.LocalOrder[1] = []msg.ID{f.m1.ID}
	tr.FirstDelivered[f.m1.ID] = 1
	// Only m1 → g0 multicast, but p2 took steps.
	delete(tr.Multicast, f.m2.ID)
	tr.TookSteps = func(p groups.Process) bool { return true }
	if v := Minimality(tr); v == nil {
		t.Fatalf("busy outsider not caught")
	}
	tr.TookSteps = func(p groups.Process) bool { return p != 2 }
	if v := Minimality(tr); v != nil {
		t.Fatalf("unexpected: %v", v)
	}
}

func TestGroupParallelismChecker(t *testing.T) {
	f := newFixture()
	tr := f.trace()
	// Isolated run of g0 = {p0,p1}: m1 delivered at p0 only → violation.
	tr.LocalOrder[0] = []msg.ID{f.m1.ID}
	tr.FirstDelivered[f.m1.ID] = 1
	delete(tr.Multicast, f.m2.ID)
	participants := groups.NewProcSet(0, 1)
	if v := GroupParallelism(tr, participants); v == nil {
		t.Fatalf("missing isolated delivery not caught")
	}
	tr.LocalOrder[1] = []msg.ID{f.m1.ID}
	if v := GroupParallelism(tr, participants); v != nil {
		t.Fatalf("unexpected: %v", v)
	}
	// A message to a group outside the participant set carries no
	// obligation.
	tr.Multicast[f.m2.ID] = 0
	if v := GroupParallelism(tr, participants); v != nil {
		t.Fatalf("outside-group message should be exempt: %v", v)
	}
}

func TestAllComposes(t *testing.T) {
	f := newFixture()
	tr := f.trace()
	tr.LocalOrder[0] = []msg.ID{f.m1.ID}
	tr.LocalOrder[1] = []msg.ID{f.m1.ID, f.m2.ID}
	tr.LocalOrder[2] = []msg.ID{f.m2.ID}
	tr.FirstDelivered[f.m1.ID] = 1
	tr.FirstDelivered[f.m2.ID] = 2
	if vs := All(tr, true, false, false); len(vs) != 0 {
		t.Fatalf("clean trace flagged: %v", vs)
	}
}

// TestBatchExtents: the verdict accepts extents that are disjoint runs of
// L_g and names the request two batches claim, a head missing from L_g and
// a batch that ends before its head.
func TestBatchExtents(t *testing.T) {
	seq := []msg.ID{1, 2, 3, 4, 5, 6}
	batches := func(b map[msg.ID]msg.ID) func(msg.ID) msg.ID {
		return func(h msg.ID) msg.ID { return b[h] }
	}
	headOf, v := BatchExtents(seq, []msg.ID{1, 4, 6}, batches(map[msg.ID]msg.ID{1: 3, 4: 5}))
	if v != nil {
		t.Fatalf("disjoint extents: %v", v)
	}
	want := map[msg.ID]msg.ID{1: 1, 2: 1, 3: 1, 4: 4, 5: 4, 6: 6}
	for m, h := range want {
		if headOf[m] != h {
			t.Errorf("m%d carried by m%d, want m%d", m, headOf[m], h)
		}
	}
	for name, c := range map[string]struct {
		heads   []msg.ID
		batches map[msg.ID]msg.ID
	}{
		"overlap":         {[]msg.ID{1, 3}, map[msg.ID]msg.ID{1: 4}},
		"head in extent":  {[]msg.ID{1, 2}, map[msg.ID]msg.ID{1: 2}},
		"unknown head":    {[]msg.ID{9}, nil},
		"ends before it":  {[]msg.ID{4}, map[msg.ID]msg.ID{4: 2}},
		"unknown request": {[]msg.ID{4}, map[msg.ID]msg.ID{4: 9}},
	} {
		if _, v := BatchExtents(seq, c.heads, batches(c.batches)); v == nil {
			t.Errorf("%s: no violation", name)
		}
	}
}
