// Package msg defines atomic-multicast messages and their identifiers,
// shared by the log objects and the multicast algorithms.
package msg

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/groups"
)

// ID identifies a multicast message. IDs also serve as the a-priori total
// order (<) over messages the paper uses to break ties between data sharing
// a log slot.
type ID int64

// None is the null message identifier.
const None ID = 0

// Class is a compact conflict-class tag fixed when a message is registered,
// so a run's commutativity relation can be evaluated from tags alone:
// ClassAll conflicts with every message, ClassFree commutes with every
// message, and two keyed classes conflict iff they are equal.
type Class uint64

const (
	// ClassAll is the zero tag: the message conflicts with everything.
	// Runs without a conflict relation behave as if every message carried
	// it — total order, exactly Algorithm 1.
	ClassAll Class = 0
	// ClassFree tags a message that commutes with every message, past and
	// future; the generic delivery path skips ordering coordination for it.
	ClassFree Class = ^Class(0)
)

// ConflictsWith evaluates the class-induced conflict relation. It is
// symmetric by construction, and ClassFree conflicts with nothing — not
// even itself — which is what marks its messages for the fast path.
func (c Class) ConflictsWith(o Class) bool {
	if c == ClassFree || o == ClassFree {
		return false
	}
	return c == ClassAll || o == ClassAll || c == o
}

// String renders the class tag.
func (c Class) String() string {
	switch c {
	case ClassAll:
		return "all"
	case ClassFree:
		return "free"
	}
	return fmt.Sprintf("k%d", uint64(c))
}

// Relation is a commutativity relation over messages: it reports whether a
// and b conflict, i.e. must be delivered in the same relative order
// everywhere. A Relation must be symmetric, and a message that does not
// conflict with itself must conflict with no message at all — the protocol
// reads !rel(m, m) as "m commutes with everything" and skips ordering
// coordination for such messages entirely.
type Relation func(a, b *Message) bool

// ClassesConflict is the Relation induced by the messages' Class tags.
func ClassesConflict(a, b *Message) bool { return a.Class.ConflictsWith(b.Class) }

// Message is a multicast message: a sender, a destination group, an opaque
// payload, and a conflict-class tag (ClassAll unless the run uses a
// commutativity relation). Senders belong to their destination group
// (closed model). Class is fixed at registration and never mutated — nodes
// read it concurrently without synchronisation.
type Message struct {
	ID      ID
	Src     groups.Process
	Dst     groups.GroupID
	Payload []byte
	Class   Class
}

// String renders the message.
func (m *Message) String() string {
	return fmt.Sprintf("m%d(src=p%d,dst=g%d)", m.ID, m.Src, m.Dst)
}

// Registry assigns identifiers and resolves them back to messages. A single
// registry is shared by every process of a run (message identity is global);
// live-backend runs register from the driver while nodes resolve
// concurrently, hence the lock. IDs are positional — message i+1 is msgs[i]
// — because the registry alone assigns them, in order.
type Registry struct {
	mu   sync.RWMutex
	msgs []*Message
}

// NewRegistry returns an empty registry. The first assigned ID is 1 so that
// None never collides with a real message.
func NewRegistry() *Registry { return &Registry{} }

// New registers a fresh message (conflict class ClassAll).
func (r *Registry) New(src groups.Process, dst groups.GroupID, payload []byte) *Message {
	return r.NewClassed(src, dst, payload, ClassAll)
}

// NewClassed registers a fresh message carrying a conflict-class tag.
func (r *Registry) NewClassed(src groups.Process, dst groups.GroupID, payload []byte, class Class) *Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &Message{ID: ID(len(r.msgs) + 1), Src: src, Dst: dst, Payload: payload, Class: class}
	r.msgs = append(r.msgs, m)
	return m
}

// Lookup resolves an ID; ok is false while id is not registered here. A
// daemon of a multi-process deployment can read an ID off a shared log
// before it has announced that message itself.
func (r *Registry) Lookup(id ID) (*Message, bool) {
	var m *Message
	r.mu.RLock()
	if id >= 1 && id <= ID(len(r.msgs)) {
		m = r.msgs[id-1]
	}
	r.mu.RUnlock()
	return m, m != nil
}

// Get resolves an ID the caller knows is registered; it panics on unknown
// IDs, which indicates a bug in the caller.
func (r *Registry) Get(id ID) *Message {
	m, ok := r.Lookup(id)
	if !ok {
		panic(fmt.Sprintf("msg: unknown message id %d", id))
	}
	return m
}

// Len returns the number of registered messages.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.msgs)
}

// All returns every registered message in ID order.
func (r *Registry) All() []*Message {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.msgs)
}
