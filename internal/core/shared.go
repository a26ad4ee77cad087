package core

import (
	"fmt"
	"sync"

	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/uc"
)

// PairKey identifies a log: the canonical unordered pair of groups whose
// intersection the log serves; a == b identifies a group log LOG_g.
type PairKey struct{ A, B groups.GroupID }

// CanonPair returns the canonical key for (g, h).
func CanonPair(g, h groups.GroupID) PairKey {
	if g > h {
		g, h = h, g
	}
	return PairKey{g, h}
}

// consKey identifies a consensus object CONS_{m,f} (Algorithm 1, line 3):
// the message and the family of groups agreeing on its final position.
type consKey struct {
	m   msg.ID
	fam groups.GroupSet
}

// Delivery is one delivery event of the run's global trace.
type Delivery struct {
	P groups.Process
	M msg.ID
	T failure.Time
	// Seq is the global sequence number of the event (total order of the
	// linearized run, used by the checkers).
	Seq int
}

// Options configure a run of the protocol.
type Options struct {
	// Variant selects the problem flavour (default Vanilla).
	Variant Variant
	// ChargeObjects enables the §4.3 universal-construction cost model on
	// every log (step charges + message counts). Correctness is unaffected.
	ChargeObjects bool
	// QuorumGate makes every action on a message of group g wait until the
	// current Σ_g quorum lies inside the engine's active participant set —
	// the shared objects of g are built from Σ_g ∧ Ω_g, so their operations
	// only complete when a quorum responds. Full-participation runs are
	// unaffected (ideal quorums are always alive); the necessity emulations
	// rely on it to make restricted instances block exactly when the paper
	// says they must.
	QuorumGate bool
	// OnDeliver, when set, observes every delivery (the extraction
	// algorithms chain multicasts off deliveries).
	OnDeliver func(p groups.Process, m *msg.Message, t failure.Time)
	// Conflict is the commutativity relation of the Generic variant: it
	// reports whether two messages must be ordered relative to each other.
	// nil means every pair conflicts (total order — exactly Algorithm 1).
	// See msg.Relation for the contract the relation must satisfy; only the
	// Generic variant consults it.
	Conflict msg.Relation
	// FD tunes the ideal detector histories.
	FD fd.Options
	// Rec, when non-nil, collects the run's observability: event timeline,
	// latency samples and per-pair coordination counts. Every recording
	// method is nil-safe and a nil recorder's counter blocks are a discard
	// block, so no call site tests for it.
	Rec *obs.Recorder
}

// Shared holds the state shared by every node of a run: the topology, the
// message registry, the detector bundle, the global delivery trace, and the
// backend supplying the shared objects (the substrate the protocol runs
// over — see backend.go).
//
// The trace-recording surface (Request, RecordDelivery, SeqList and the
// accessors) is guarded by a mutex: deterministic runs are sequential, but
// the live backend steps every node in its own goroutine.
type Shared struct {
	Topo *groups.Topology
	Reg  *msg.Registry
	Mu   *fd.Mu
	Opt  Options

	be Backend

	mu sync.Mutex

	// seqs are the group-sequential lists L_g of the Proposition 1
	// reduction: client multicasts enter here, and a sender only hands its
	// message to Algorithm 1 once every predecessor of L_g is delivered
	// locally.
	seqs map[groups.GroupID][]msg.ID

	// requestedAt records when each message was handed to multicast() —
	// the left endpoint of the real-time relation ⇝.
	requestedAt map[msg.ID]failure.Time
	// firstDelivered records the first delivery time of each message — the
	// right endpoint of ⇝.
	firstDelivered map[msg.ID]failure.Time

	deliveries []Delivery
	seq        int
	frozen     bool

	// gammaOverride substitutes another γ implementation for the ideal one
	// (ablations and the necessity emulations plug in theirs here).
	gammaOverride fd.Gamma

	// guardOracle, set by tests only, is shown every predecessor-guard
	// verdict so a brute-force evaluation can be held against it.
	guardOracle func(n *Node, l *nodeLog, id msg.ID, min Phase, got bool)
}

// Gamma returns the γ in effect for this run. The strict variant derives
// its γ from the indicator detectors (Proposition 51: ∧1^{g∩h} ≥ γ), so
// its detector is exactly (∧ Σ_{g∩h} ∧ 1^{g∩h}) ∧ (∧ Ω_g) — the §6.1
// rewriting.
func (sh *Shared) Gamma() fd.Gamma {
	if sh.gammaOverride != nil {
		return sh.gammaOverride
	}
	if sh.Opt.Variant == Strict {
		return fd.NewDerivedGamma(sh.Topo, sh.Mu)
	}
	return sh.Mu.Gamma()
}

// OverrideGamma substitutes a γ implementation (for ablations and
// emulation-driven runs); call before the run starts.
func (sh *Shared) OverrideGamma(g fd.Gamma) { sh.gammaOverride = g }

// NewShared builds the shared state of a run over the deterministic Sim
// backend (ideal in-memory objects).
func NewShared(topo *groups.Topology, pat *failure.Pattern, opt Options) *Shared {
	sh := newSharedState(topo, pat, opt)
	sh.be = newSimBackend(topo, sh.Reg, sh.Opt)
	return sh
}

// NewSharedWithBackend builds the shared state of a run over an explicit
// backend (internal/live supplies the replicated one). The factory receives
// the freshly built shared state — backends need its registry to resolve
// message destinations and its detector bundle to drive leader election.
func NewSharedWithBackend(topo *groups.Topology, pat *failure.Pattern, opt Options, mk func(sh *Shared) Backend) *Shared {
	sh := newSharedState(topo, pat, opt)
	sh.be = mk(sh)
	return sh
}

// newSharedState builds everything but the backend.
func newSharedState(topo *groups.Topology, pat *failure.Pattern, opt Options) *Shared {
	if opt.Variant == 0 {
		opt.Variant = Vanilla
	}
	return &Shared{
		Topo:           topo,
		Reg:            msg.NewRegistry(),
		Mu:             fd.NewMu(topo, pat, opt.FD),
		Opt:            opt,
		seqs:           make(map[groups.GroupID][]msg.ID),
		requestedAt:    make(map[msg.ID]failure.Time),
		firstDelivered: make(map[msg.ID]failure.Time),
	}
}

// Backend returns the shared-object backend of the run.
func (sh *Shared) Backend() Backend { return sh.be }

// Rec returns the run's recorder (nil when observability is off).
func (sh *Shared) Rec() *obs.Recorder { return sh.Opt.Rec }

// Log returns the universal-construction log LOG_{g∩h} (LOG_g when g == h)
// of a Sim-backed run; it panics when g∩h = ∅ or when the run uses another
// backend. It exists for the invariant tests and the ablations, which
// inspect the ideal objects directly; protocol code goes through Backend.
func (sh *Shared) Log(g, h groups.GroupID) *uc.Log {
	b, ok := sh.be.(*simBackend)
	if !ok {
		panic(fmt.Sprintf("core: Shared.Log(g%d,g%d) needs the Sim backend (got %T)", g, h, sh.be))
	}
	return b.ucLog(g, h)
}

// GroupLog returns LOG_g (Sim backend only; see Log).
func (sh *Shared) GroupLog(g groups.GroupID) *uc.Log { return sh.Log(g, g) }

// Request registers a client multicast: the message enters the group-
// sequential list L_g immediately; the sending node passes it to
// Algorithm 1 once its L_g predecessors are delivered locally.
func (sh *Shared) Request(src groups.Process, dst groups.GroupID, payload []byte, now failure.Time) *msg.Message {
	return sh.RequestClassed(src, dst, payload, msg.ClassAll, now)
}

// RequestClassed is Request with an explicit conflict-class tag. Before
// registration the tag is normalised against the run's relation: a message
// that does not conflict with itself commutes with everything, so it is
// re-tagged ClassFree — the canonical form the fast path, the wire codec
// and the observability layer all read.
func (sh *Shared) RequestClassed(src groups.Process, dst groups.GroupID, payload []byte, class msg.Class, now failure.Time) *msg.Message {
	if !sh.Topo.Group(dst).Has(src) {
		panic(fmt.Sprintf("core: closed dissemination model requires src ∈ dst: p%d ∉ g%d", src, dst))
	}
	if rel := sh.Opt.Conflict; rel != nil && class != msg.ClassFree {
		probe := msg.Message{Src: src, Dst: dst, Payload: payload, Class: class}
		if !rel(&probe, &probe) {
			class = msg.ClassFree
		}
	}
	m := sh.Reg.NewClassed(src, dst, payload, class)
	sh.mu.Lock()
	sh.seqs[dst] = append(sh.seqs[dst], m.ID)
	sh.requestedAt[m.ID] = now
	sh.mu.Unlock()
	sh.Opt.Rec.Multicast(src, m.ID, dst, now)
	sh.Opt.Rec.NoteClass(uint64(m.Class))
	return m
}

// Conflicts reports whether a and b must be ordered relative to each other.
// With no relation configured every pair conflicts, so every non-Generic
// run — and a Generic run with a nil relation — behaves exactly like
// Algorithm 1.
func (sh *Shared) Conflicts(a, b msg.ID) bool {
	rel := sh.Opt.Conflict
	if rel == nil {
		return true
	}
	return rel(sh.Reg.Get(a), sh.Reg.Get(b))
}

// Commutative reports whether m commutes with every message (the fast-path
// eligibility test): per the msg.Relation contract, a message that does not
// conflict with itself conflicts with nothing.
func (sh *Shared) Commutative(m msg.ID) bool {
	rel := sh.Opt.Conflict
	if rel == nil {
		return false
	}
	mm := sh.Reg.Get(m)
	return !rel(mm, mm)
}

// SeqList returns a snapshot of L_g.
func (sh *Shared) SeqList(g groups.GroupID) []msg.ID {
	return append([]msg.ID(nil), sh.SeqListFrom(g, 0)...)
}

// SeqListFrom returns L_g from index from on, without copying: L_g is
// append-only, so the entries below its current length never change and the
// returned slice (capped at that length) may be read without the mutex. The
// caller must not modify it.
func (sh *Shared) SeqListFrom(g groups.GroupID, from int) []msg.ID {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.seqs[g]
	return s[from:len(s):len(s)]
}

// seqIndex returns the index of m in L_g. Nodes ask right after Request
// appended m, so the search runs back from the tail and ends within the few
// requests that raced with it.
func (sh *Shared) seqIndex(g groups.GroupID, m msg.ID) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.seqs[g]
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == m {
			return i
		}
	}
	panic(fmt.Sprintf("core: m%d was never requested for g%d", m, g))
}

// RecordDelivery appends to the global delivery trace.
func (sh *Shared) RecordDelivery(p groups.Process, m msg.ID, t failure.Time) {
	sh.mu.Lock()
	if sh.frozen {
		sh.mu.Unlock()
		return
	}
	sh.deliveries = append(sh.deliveries, Delivery{P: p, M: m, T: t, Seq: sh.seq})
	sh.seq++
	if _, ok := sh.firstDelivered[m]; !ok {
		sh.firstDelivered[m] = t
	}
	sh.mu.Unlock()
	if rec := sh.Opt.Rec; rec != nil {
		if mm := sh.Reg.Get(m); mm != nil {
			rec.Deliver(p, m, mm.Dst, t)
		}
	}
}

// Freeze stops trace recording: deliveries after Freeze are dropped. The
// live runner freezes the trace before tearing the substrate down, so
// actions completing degraded during shutdown cannot corrupt the evidence
// the checkers consume.
func (sh *Shared) Freeze() {
	sh.mu.Lock()
	sh.frozen = true
	sh.mu.Unlock()
}

// Deliveries returns a snapshot of the global delivery trace.
func (sh *Shared) Deliveries() []Delivery {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]Delivery(nil), sh.deliveries...)
}

// RequestedAt returns when the message was requested.
func (sh *Shared) RequestedAt(m msg.ID) failure.Time {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.requestedAt[m]
}

// FirstDeliveredAt returns the first delivery time of m; ok is false when m
// was never delivered.
func (sh *Shared) FirstDeliveredAt(m msg.ID) (failure.Time, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t, ok := sh.firstDelivered[m]
	return t, ok
}
