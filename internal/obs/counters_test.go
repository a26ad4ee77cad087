package obs_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// bump adds a distinct amount to every counter of a live block through the
// public helpers and returns what each field must now read, by field name.
func bump(t *testing.T, block any, base int64) map[string]int64 {
	t.Helper()
	want := make(map[string]int64)
	v := reflect.ValueOf(block).Elem()
	for i := 0; i < v.NumField(); i++ {
		n := base + int64(i) + 2
		switch p := v.Field(i).Addr().Interface().(type) {
		case *int64:
			obs.Inc(p)
			obs.Add(p, n-1)
		case *uint64:
			obs.Inc(p)
			obs.Add(p, uint64(n-1))
		default:
			t.Fatalf("%s.%s is a %s, not a counter", v.Type().Name(), v.Type().Field(i).Name, v.Field(i).Type())
		}
		want[v.Type().Field(i).Name] = n
	}
	return want
}

// TestEveryDeclaredCounterIsReported walks the table: every counter field of
// every block, bumped by a distinct amount, must come back from Report with
// exactly that value, carry a non-empty JSON tag unique in its block, and be
// named in String. A counter that is declared but never reported cannot
// exist, and neither can a RunReport section this test does not know.
func TestEveryDeclaredCounterIsReported(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters})
	wire, chaos := new(obs.WireCounters), new(obs.ChaosCounters)
	live := []any{rec.Paxos(), rec.Replog(), rec.WAL(), rec.Sched(), wire, chaos}
	want := make(map[reflect.Type]map[string]int64)
	for i, block := range live {
		want[reflect.TypeOf(block)] = bump(t, block, int64(1000*(i+1)))
	}
	rep := rec.Report()
	rep.Wire, rep.Chaos = obs.Snapshot(wire), obs.Snapshot(chaos) // as live.System.Report does
	text := rep.String()

	sections := 0
	rv := reflect.ValueOf(rep)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Pointer || !strings.HasSuffix(f.Type().Elem().Name(), "Counters") {
			continue
		}
		sections++
		section := rv.Type().Field(i).Name
		fields, ok := want[f.Type()]
		if !ok {
			t.Errorf("RunReport.%s is a counter block this test does not bump", section)
			continue
		}
		if f.IsNil() {
			t.Errorf("RunReport.%s absent although its counters moved", section)
			continue
		}
		tags := make(map[string]bool)
		block := f.Elem()
		for j := 0; j < block.NumField(); j++ {
			sf := block.Type().Field(j)
			got := block.Field(j).Convert(reflect.TypeOf(int64(0))).Int()
			if got != fields[sf.Name] {
				t.Errorf("%s.%s reported %d, want %d", section, sf.Name, got, fields[sf.Name])
			}
			tag, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if tag == "" || tag == "-" || tags[tag] {
				t.Errorf("%s.%s has an empty or duplicate JSON tag %q", section, sf.Name, tag)
			}
			tags[tag] = true
			if cell := fmt.Sprintf("%s=%d", tag, got); !strings.Contains(text, cell) {
				t.Errorf("String() does not name %s.%s (%q):\n%s", section, sf.Name, cell, text)
			}
		}
	}
	if sections != len(live) {
		t.Errorf("RunReport has %d counter sections, test bumps %d blocks", sections, len(live))
	}
}

// TestSectionPresentRule: a block none of whose counters moved has no
// section; one moved counter — any one — brings the whole section.
func TestSectionPresentRule(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters})
	if rep := rec.Report(); rep.Paxos != nil || rep.Replog != nil || rep.WAL != nil || rep.Sched != nil {
		t.Fatalf("fresh recorder reports sections: %+v", rep)
	}
	obs.Inc(&rec.WAL().Rotations)
	rep := rec.Report()
	if rep.WAL == nil || rep.WAL.Rotations != 1 || rep.WAL.Appends != 0 {
		t.Errorf("WAL section after one rotation: %+v", rep.WAL)
	}
	if rep.Paxos != nil {
		t.Errorf("paxos section present with no paxos work: %+v", rep.Paxos)
	}
}

// TestMaxKeepsPeak: Max is a high-water mark, not a sum.
func TestMaxKeepsPeak(t *testing.T) {
	var c obs.PaxosCounters
	for _, d := range []int64{3, 7, 5, 7, 1} {
		obs.Max(&c.WindowDepthPeak, d)
	}
	if c.WindowDepthPeak != 7 {
		t.Errorf("peak of 3,7,5,7,1 = %d, want 7", c.WindowDepthPeak)
	}
}

// TestHelpersDoNotAllocate: the hot-path helpers are free of allocation on
// a recorder's block and on the discard block a nil recorder hands out.
func TestHelpersDoNotAllocate(t *testing.T) {
	var off *obs.Recorder
	for name, rec := range map[string]*obs.Recorder{"live": obs.NewRecorder(obs.Options{}), "discard": off} {
		p, w := rec.Paxos(), rec.WAL()
		var u obs.ChaosCounters
		if n := testing.AllocsPerRun(100, func() {
			obs.Inc(&p.Rounds)
			obs.Add(&w.Bytes, 512)
			obs.Max(&p.WindowDepthPeak, 4)
			obs.Inc(&u.Forwarded)
		}); n != 0 {
			t.Errorf("%s block: %.0f allocs per Inc+Add+Max, want 0", name, n)
		}
	}
}

// TestReportConcurrentWithWriters takes reports while the layers count, as
// amcastbench does mid-run; under -race this is the proof that the walker's
// per-field atomic loads are enough. Values only grow, and the final report
// is exact.
func TestReportConcurrentWithWriters(t *testing.T) {
	const writers, per = 4, 2000
	rec := obs.NewRecorder(obs.Options{Level: obs.LevelCounters})
	wire := new(obs.WireCounters)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				obs.Inc(&rec.Replog().Applies)
				obs.Add(&rec.WAL().Bytes, 10)
				obs.Max(&rec.Paxos().WindowDepthPeak, int64(i))
				obs.Inc(&wire.FramesEncoded)
				rec.Multicast(0, 1, 0, 0)
			}
		}()
	}
	var last int64
	for i := 0; i < 50; i++ {
		rep := rec.Report()
		if rep.Replog != nil {
			if rep.Replog.Applies < last {
				t.Fatalf("applies went backwards: %d after %d", rep.Replog.Applies, last)
			}
			last = rep.Replog.Applies
		}
		_ = obs.Snapshot(wire)
		_ = rep.String()
	}
	wg.Wait()
	rep := rec.Report()
	if rep.Replog.Applies != writers*per || rep.WAL.Bytes != 10*writers*per || rep.Paxos.WindowDepthPeak != per-1 {
		t.Errorf("final report: replog %+v wal %+v paxos %+v", rep.Replog, rep.WAL, rep.Paxos)
	}
	if got := obs.Snapshot(wire).FramesEncoded; got != writers*per {
		t.Errorf("wire frames %d, want %d", got, writers*per)
	}
}

// TestMeanBatch: requests per Algorithm-1 delivery, a head counted once.
func TestMeanBatch(t *testing.T) {
	var none *obs.SchedCounters
	if got := none.MeanBatch(); got != 0 {
		t.Errorf("nil block: %v", got)
	}
	if got := (&obs.SchedCounters{}).MeanBatch(); got != 0 {
		t.Errorf("no deliveries: %v", got)
	}
	if got := (&obs.SchedCounters{Batches: 4, Constituents: 6}).MeanBatch(); got != 2.5 {
		t.Errorf("4 batches carrying 6 constituents: %v requests each, want 2.5", got)
	}
}
