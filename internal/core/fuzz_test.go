package core

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/logobj"
	"repro/internal/msg"
	"repro/internal/obs"
)

// fuzzCase is one scenario FuzzScenario decodes.
type fuzzCase struct {
	topo *groups.Topology
	pat  *failure.Pattern
	opt  Options
	seed int64
	work []fuzzRequest
}

// fuzzRequest is one queued client multicast of a fuzzCase.
type fuzzRequest struct {
	at    failure.Time
	src   groups.Process
	dst   groups.GroupID
	class msg.Class
}

// fuzzVariants are the variants a fuzz input selects from; the zero byte
// selects Vanilla.
var fuzzVariants = [...]Variant{Vanilla, Strict, Pairwise, StronglyGenuine, Generic}

// fuzzClasses are the conflict classes a message draws from under Generic:
// two keys, the class that conflicts with all and the one that commutes.
var fuzzClasses = [...]msg.Class{msg.ClassAll, 1, 2, msg.ClassFree}

// decodeScenario maps any byte string to a valid scenario. The first bytes
// are the topology, the optional crash, the engine seed and up to four
// timed multicasts; then, each read as 0 when the input has run out — so an
// input that ends there decodes to that scenario under Vanilla — the
// variant (bit 0x80 attaches the class relation under Generic), and per
// timed multicast its class and how many more requests its sender queues at
// the same tick (0..3), which the gate then lets in as one batch.
func decodeScenario(data []byte) fuzzCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := int(next())%6 + 2 // 2..7 processes
	k := int(next())%3 + 1 // 1..3 groups
	gs := make([]groups.ProcSet, k)
	for i := range gs {
		var g groups.ProcSet
		g = g.Add(groups.Process(int(next()) % n)) // ensure non-empty
		raw := uint64(next()) | uint64(next())<<8
		g = g.Union(groups.ProcSet(raw & ((1 << uint(n)) - 1)))
		gs[i] = g
	}
	c := fuzzCase{topo: groups.MustNew(n, gs...), pat: failure.NewPattern(n)}

	// One optional crash that keeps a survivor in every group.
	crashByte := next()
	if crashByte&0x80 != 0 {
		p := groups.Process(int(crashByte) % n)
		trial := c.pat.WithCrash(p, failure.Time(10+int(next())%60))
		ok := true
		for g := 0; g < k; g++ {
			if trial.Correct().Intersect(gs[g]).Empty() {
				ok = false
			}
		}
		if ok {
			c.pat = trial
		}
	}

	c.seed = int64(next())
	timed := make([]fuzzRequest, int(next())%4+1)
	for i := range timed {
		g := groups.GroupID(int(next()) % k)
		members := c.topo.Group(g).Members()
		timed[i] = fuzzRequest{src: members[int(next())%len(members)], dst: g}
		timed[i].at = failure.Time(int(next()) % 80)
	}

	v := next()
	c.opt = Options{Variant: fuzzVariants[int(v)%len(fuzzVariants)], FD: fd.Options{Delay: 6}}
	if c.opt.Variant == Generic && v&0x80 != 0 {
		c.opt.Conflict = msg.ClassesConflict
	}
	for _, r := range timed {
		r.class = fuzzClasses[int(next())%len(fuzzClasses)]
		burst := int(next())%4 + 1
		for j := 0; j < burst; j++ {
			c.work = append(c.work, r)
		}
	}
	return c
}

// run builds the scenario's system, schedules its requests and runs it to
// quiescence; it reports false on a liveness failure.
func (c fuzzCase) run() (*System, bool) {
	s := NewSystem(c.topo, c.pat, c.opt, c.seed)
	for _, r := range c.work {
		s.MulticastClassedAt(r.at, r.src, r.dst, nil, r.class)
	}
	return s, s.Run()
}

// FuzzScenario decodes a scenario — topology, crash set, variant, classes,
// bursts of queued requests, seed — from the fuzz input (decodeScenario),
// runs Algorithm 1 to quiescence and checks the whole specification with
// check.All, check.Termination among its verdicts. The decoder is total:
// any byte string maps to some valid scenario, so the fuzzer explores
// protocol schedules rather than parser corners.
func FuzzScenario(f *testing.F) {
	f.Add([]byte{3, 2, 0x03, 0x06, 0x00, 1, 0, 2, 1, 7})
	f.Add([]byte{5, 4, 0x03, 0x06, 0x1c, 0x19, 0x41, 2, 0, 3, 2, 9})
	f.Add([]byte{4, 3, 0x0f, 0x33, 0x55, 0x81, 1, 1, 2, 0, 3})
	for _, seed := range fuzzBatchSeeds {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		c := decodeScenario(data)
		s, ok := c.run()
		if !ok {
			t.Fatalf("liveness failure: %v %v %v", c.opt.Variant, c.topo, c.pat)
		}
		for _, v := range s.Check() {
			t.Fatalf("%v (%v topo=%v pat=%v)", v, c.opt.Variant, c.topo, c.pat)
		}
	})
}

// fuzzBatchSeeds are FuzzScenario inputs past the three vanilla ones, each
// named for what it covers; TestFuzzBatchSeeds holds the first two to it.
var fuzzBatchSeeds = []struct {
	name string
	data []byte
}{
	{"batch of four under vanilla", []byte{0x2, 0xfa, 0x4, 0x7b, 0xf7, 0xe8, 0xbf, 0x5a, 0x51, 0xa3, 0x5, 0x4d, 0xbb, 0xa8, 0xbe, 0xf4, 0xc4, 0xf, 0xe9, 0x7c, 0x73, 0x7b, 0x7c, 0x8f, 0x72, 0xad, 0xda, 0x57, 0xc4, 0xa2}},
	{"batch former crashes a tick after its append, strict", []byte{0x3, 0x61, 0xae, 0x39, 0xbb, 0xf0, 0x6b, 0x7, 0x9b, 0xc8, 0x9, 0xc1, 0x12, 0x25, 0x10, 0x9d, 0xb0, 0xd1, 0xbf, 0x28, 0x9b, 0xb0, 0xd5, 0x67, 0x61, 0xf0, 0xf5, 0x74, 0x82, 0x51}},
	// Generic with a relation: the gate walk passes a commuting request in
	// flight. Batches there deliver a request twice; gateOpen ignored, the
	// walk helps in a request beside one it conflicts with, and m5 wedges.
	{"generic burst past a commuting request in flight", []byte("A2010000100017000001000000\xa90000700")},
	{"generic burst that wedges without gateOpen", []byte{0x68, 0x2e, 0x90, 0xb5, 0x3b, 0xb3, 0x79, 0x4a, 0x6f, 0x55, 0x26, 0x6c, 0xb0, 0xad, 0xc9, 0x79, 0x73, 0x3, 0x6, 0x7e, 0xa9, 0x7a, 0xf1, 0x7c, 0x37, 0x9f}},
}

// TestFuzzBatchSeeds holds the batch seeds to their names: the first forms
// a batch of four, and in the second the process that forms a batch crashes
// the tick after its append, and the batch is still delivered at every
// correct member.
func TestFuzzBatchSeeds(t *testing.T) {
	runSeed := func(i int) (fuzzCase, *System, *obs.Recorder) {
		c := decodeScenario(fuzzBatchSeeds[i].data)
		c.opt.Rec = obs.NewRecorder(obs.Options{})
		s, ok := c.run()
		if !ok {
			t.Fatalf("%s: no quiescence", fuzzBatchSeeds[i].name)
		}
		for _, v := range s.Check() {
			t.Fatalf("%s: %v", fuzzBatchSeeds[i].name, v)
		}
		return c, s, c.opt.Rec
	}
	biggest := 0
	_, s, _ := runSeed(0)
	for _, n := range batchSizes(t, s) {
		biggest = max(biggest, n)
	}
	if biggest < 4 {
		t.Errorf("%s: largest batch %d", fuzzBatchSeeds[0].name, biggest)
	}

	c, s, rec := runSeed(1)
	sizes := batchSizes(t, s)
	crashed := false
	for _, e := range rec.Report().Events {
		if e.Kind != obs.EvAppend || e.Aux != uint8(logobj.KindMsg) || e.G != e.H || sizes[e.M] < 2 {
			continue
		}
		if ct := c.pat.CrashTime(e.P); ct != failure.Never && ct > e.T && ct-e.T <= 1 {
			crashed = true
		}
	}
	if !crashed {
		t.Errorf("%s: no batch former crashed right after its append", fuzzBatchSeeds[1].name)
	}
}

// batchSizes returns the size of every batch in the run's group logs, by
// head.
func batchSizes(t *testing.T, s *System) map[msg.ID]int {
	t.Helper()
	sizes := make(map[msg.ID]int)
	for _, h := range batchHeads(t, s) {
		sizes[h]++
	}
	return sizes
}
