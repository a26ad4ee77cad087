package msg

import (
	"math"
	"testing"
)

func TestRegistryAssignsSequentialIDs(t *testing.T) {
	r := NewRegistry()
	a := r.New(0, 0, []byte("a"))
	b := r.New(1, 0, nil)
	if a.ID != 1 || b.ID != 2 {
		t.Fatalf("ids = %d, %d", a.ID, b.ID)
	}
	if a.ID == None {
		t.Fatalf("real message got the null id")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRegistryGet(t *testing.T) {
	r := NewRegistry()
	m := r.New(2, 1, []byte("x"))
	got := r.Get(m.ID)
	if got.Src != 2 || got.Dst != 1 || string(got.Payload) != "x" {
		t.Fatalf("Get = %+v", got)
	}
}

func TestRegistryGetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegistry().Get(99)
}

// TestRegistryLookupOutOfRange: an ID the registry has not assigned — the
// null ID, a negative one, the next one, the largest — resolves to nothing,
// as an ID read off a peer's op before its message is announced here must.
func TestRegistryLookupOutOfRange(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		r.New(0, 0, nil)
	}
	for _, id := range []ID{0, -1, ID(r.Len() + 1), math.MaxInt64, math.MinInt64} {
		if m, ok := r.Lookup(id); ok || m != nil {
			t.Errorf("Lookup(%d) = %v, %v; want nothing", id, m, ok)
		}
	}
	for id := ID(1); id <= ID(r.Len()); id++ {
		if m, ok := r.Lookup(id); !ok || m.ID != id {
			t.Errorf("Lookup(%d) = %v, %v", id, m, ok)
		}
	}
}

func TestRegistryAllInOrder(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		r.New(0, 0, nil)
	}
	all := r.All()
	if len(all) != 5 {
		t.Fatalf("All returned %d", len(all))
	}
	for i, m := range all {
		if m.ID != ID(i+1) {
			t.Fatalf("All out of order: %v", all)
		}
	}
}

func TestMessageString(t *testing.T) {
	r := NewRegistry()
	m := r.New(3, 2, nil)
	if got := m.String(); got != "m1(src=p3,dst=g2)" {
		t.Fatalf("String = %q", got)
	}
}
