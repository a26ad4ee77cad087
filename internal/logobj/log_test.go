package logobj

import (
	"math/rand"
	"testing"

	"repro/internal/msg"
)

func TestAppendAssignsIncreasingSlots(t *testing.T) {
	l := New("t")
	if got := l.Append(MsgDatum(1)); got != 1 {
		t.Fatalf("first append at %d, want 1", got)
	}
	if got := l.Append(MsgDatum(2)); got != 2 {
		t.Fatalf("second append at %d, want 2", got)
	}
	// Idempotence: re-appending returns the existing position.
	if got := l.Append(MsgDatum(1)); got != 1 {
		t.Fatalf("re-append moved datum to %d", got)
	}
}

func TestAppendAfterBumpGoesPastHead(t *testing.T) {
	l := New("t")
	l.Append(MsgDatum(1))
	l.BumpAndLock(MsgDatum(1), 10)
	if got := l.Append(MsgDatum(2)); got != 11 {
		t.Fatalf("append after bump at %d, want 11 (head past bumped slot)", got)
	}
}

func TestBumpAndLock(t *testing.T) {
	l := New("t")
	l.Append(MsgDatum(1)) // slot 1
	l.Append(MsgDatum(2)) // slot 2
	l.BumpAndLock(MsgDatum(1), 5)
	if got := l.Pos(MsgDatum(1)); got != 5 {
		t.Fatalf("pos after bump = %d, want 5", got)
	}
	if !l.Locked(MsgDatum(1)) {
		t.Fatalf("datum not locked")
	}
	// Bump to a lower slot keeps the current one: max(k, l).
	l.Append(MsgDatum(3))
	l.BumpAndLock(MsgDatum(3), 2)
	if got := l.Pos(MsgDatum(3)); got != 6 {
		t.Fatalf("bump below current moved datum to %d, want 6", got)
	}
	// Locked data cannot be bumped anymore (Claim 5).
	l.BumpAndLock(MsgDatum(1), 100)
	if got := l.Pos(MsgDatum(1)); got != 5 {
		t.Fatalf("locked datum moved to %d", got)
	}
}

func TestBumpAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("t").BumpAndLock(MsgDatum(9), 1)
}

func TestSlotTieBreak(t *testing.T) {
	l := New("t")
	l.Append(MsgDatum(2)) // slot 1
	l.Append(MsgDatum(1)) // slot 2
	l.BumpAndLock(MsgDatum(1), 1)
	// Wait: bump to max(1, 2) = 2, so no collision. Re-do with shared slot:
	l2 := New("t2")
	l2.Append(MsgDatum(5)) // slot 1
	l2.Append(MsgDatum(3)) // slot 2
	l2.BumpAndLock(MsgDatum(5), 2)
	// Both m5 and m3 now occupy slot 2; m3 < m5 by the a-priori order.
	if !l2.Less(MsgDatum(3), MsgDatum(5)) {
		t.Fatalf("tie-break by message ID failed")
	}
	msgs := l2.Messages()
	if len(msgs) != 2 || msgs[0] != 3 || msgs[1] != 5 {
		t.Fatalf("Messages() = %v, want [3 5]", msgs)
	}
}

func TestMessagesBefore(t *testing.T) {
	l := New("t")
	l.Append(MsgDatum(4))
	l.Append(MsgDatum(7))
	l.Append(PosDatum(4, 1, 3))
	l.Append(MsgDatum(9))
	before := l.MessagesBefore(MsgDatum(9))
	if len(before) != 2 || before[0] != 4 || before[1] != 7 {
		t.Fatalf("MessagesBefore = %v", before)
	}
	if got := l.MessagesBefore(MsgDatum(999)); got != nil {
		t.Fatalf("MessagesBefore(absent) = %v, want nil", got)
	}
}

func TestMaxPosTuple(t *testing.T) {
	l := New("t")
	if _, ok := l.MaxPosTuple(1); ok {
		t.Fatalf("MaxPosTuple on empty log should report absent")
	}
	l.Append(PosDatum(1, 0, 2))
	l.Append(PosDatum(1, 1, 7))
	l.Append(PosDatum(2, 0, 99))
	got, ok := l.MaxPosTuple(1)
	if !ok || got != 7 {
		t.Fatalf("MaxPosTuple = %d,%v; want 7,true", got, ok)
	}
	if !l.HasPosTuple(1, 1) || l.HasPosTuple(1, 3) {
		t.Fatalf("HasPosTuple wrong")
	}
}

// op is a random log operation for the model-based property tests below.
type op struct {
	kind int // 0 = append, 1 = bumpAndLock
	d    Datum
	k    int
}

func randOps(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{
			kind: rng.Intn(2),
			d:    MsgDatum(msg.ID(rng.Intn(8) + 1)),
			k:    rng.Intn(12),
		}
	}
	return ops
}

// TestClaims2to8 runs random operation sequences and checks the log
// invariants of Table 2 after every step:
//
//	Claim 2: presence is stable        (d ∈ L ⇒ G(d ∈ L))
//	Claim 3: positions never decrease  (pos(d)=k ⇒ G(pos(d) ≥ k))
//	Claim 4: locks are stable          (locked(d) ⇒ G locked(d))
//	Claim 5: locked position is fixed  (locked ∧ pos=k ⇒ G pos=k)
//	Claim 6: order below a locked datum is stable
//	Claim 7: data appended after a lock come after it
//	Claim 8: nothing moves before a locked datum
func TestClaims2to8(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		l := New("prop")
		type snapshot struct {
			pos    map[Datum]int
			locked map[Datum]bool
		}
		snap := func() snapshot {
			s := snapshot{pos: map[Datum]int{}, locked: map[Datum]bool{}}
			for _, d := range l.Items() {
				s.pos[d] = l.Pos(d)
				s.locked[d] = l.Locked(d)
			}
			return s
		}
		prev := snap()
		prevLess := map[[2]Datum]bool{}
		for _, o := range randOps(rng, 30) {
			switch o.kind {
			case 0:
				l.Append(o.d)
			case 1:
				if l.Contains(o.d) {
					l.BumpAndLock(o.d, o.k)
				}
			}
			cur := snap()
			for d, p := range prev.pos {
				cp, ok := cur.pos[d]
				if !ok {
					t.Fatalf("Claim 2 violated: %v disappeared", d)
				}
				if cp < p {
					t.Fatalf("Claim 3 violated: %v moved back %d→%d", d, p, cp)
				}
				if prev.locked[d] {
					if !cur.locked[d] {
						t.Fatalf("Claim 4 violated: %v unlocked", d)
					}
					if cp != p {
						t.Fatalf("Claim 5 violated: locked %v moved %d→%d", d, p, cp)
					}
				}
			}
			// Claims 6 and 8: for locked d, the set {d' : d' <_L d} and
			// {d' : d <_L d'} among previously-present data is stable.
			for d := range prev.pos {
				for o2 := range prev.pos {
					if d == o2 {
						continue
					}
					key := [2]Datum{d, o2}
					was := prevLess[key]
					now := l.Less(d, o2)
					if prev.locked[d] && was && !now {
						t.Fatalf("Claim 6 violated: %v <_L %v ceased", d, o2)
					}
					if prev.locked[o2] && !was && now && prev.pos[d] != 0 {
						t.Fatalf("Claim 8 violated: %v moved before locked %v", d, o2)
					}
				}
			}
			// Claim 7: new data appended while d' locked come after d'.
			for d, p := range cur.pos {
				if _, existed := prev.pos[d]; existed {
					continue
				}
				for dp := range prev.pos {
					if prev.locked[dp] && !l.Less(dp, d) {
						t.Fatalf("Claim 7 violated: new %v@%d not after locked %v@%d",
							d, p, dp, cur.pos[dp])
					}
				}
			}
			prev = cur
			prevLess = map[[2]Datum]bool{}
			for d := range cur.pos {
				for o2 := range cur.pos {
					if d != o2 && l.Less(d, o2) {
						prevLess[[2]Datum{d, o2}] = true
					}
				}
			}
		}
	}
}

// TestLessIsStrictTotalOrderPerLog: <_L is irreflexive, asymmetric and total
// over the data present in the log.
func TestLessIsStrictTotalOrderPerLog(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		l := New("ord")
		for _, o := range randOps(rng, 20) {
			if o.kind == 0 {
				l.Append(o.d)
			} else if l.Contains(o.d) {
				l.BumpAndLock(o.d, o.k)
			}
		}
		items := l.Items()
		for i, a := range items {
			if l.Less(a, a) {
				t.Fatalf("irreflexivity violated at %v", a)
			}
			for _, b := range items[i+1:] {
				x, y := l.Less(a, b), l.Less(b, a)
				if x == y {
					t.Fatalf("totality/asymmetry violated: %v vs %v (%v,%v)", a, b, x, y)
				}
			}
		}
		// Items() must be sorted by <_L.
		for i := 1; i < len(items); i++ {
			if !l.Less(items[i-1], items[i]) {
				t.Fatalf("Items not sorted: %v !< %v", items[i-1], items[i])
			}
		}
	}
}

func TestDatumOrderAndString(t *testing.T) {
	a, b := MsgDatum(1), MsgDatum(2)
	if !a.Less(b) || b.Less(a) {
		t.Fatalf("message order wrong")
	}
	if MsgDatum(1).Less(MsgDatum(1)) {
		t.Fatalf("Less not irreflexive")
	}
	p := PosDatum(1, 2, 3)
	if !MsgDatum(1).Less(p) {
		t.Fatalf("msg datum should precede pos datum of same message")
	}
	if s := p.String(); s != "(m1,g2,3)" {
		t.Fatalf("String = %q", s)
	}
	if s := StableDatum(4, 1).String(); s != "(m4,g1)" {
		t.Fatalf("String = %q", s)
	}
}

// TestAppendOfNoKindPanics: a datum of none of the four kinds is a caller's
// bug, as DecodeDatum's rejection of one says; Append refuses it rather than
// store it under a kind the arena cannot hold.
func TestAppendOfNoKindPanics(t *testing.T) {
	for _, k := range []Kind{0, KindCons + 1, KindMsg + 256, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append of a kind-%d datum did not panic", k)
				}
			}()
			New("kinds").Append(Datum{Kind: k, Msg: 1})
		}()
	}
}
