// Package multicast is the public API of the library: genuine atomic
// multicast over arbitrary destination groups, driven by the failure
// detector μ = (∧ Σ_{g∩h}) ∧ (∧ Ω_g) ∧ γ of Sutra (PODC 2022), with the
// paper's variations available as options.
//
// A System is a deterministic virtual-time instance: declare a topology,
// optionally schedule crashes, issue multicasts, run, and inspect per-node
// delivery orders. Runs are reproducible from their seed, and every run can
// be validated against the full problem specification with Validate.
//
//	topo := multicast.NewTopology(5).
//		Group("g1", 0, 1).
//		Group("g2", 1, 2)
//	sys, err := multicast.New(topo, multicast.Config{Seed: 42})
//	...
//	sys.Multicast(0, "g1", []byte("hello"))
//	sys.Run()
//	order := sys.Delivered(1)
package multicast

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/live"
	"repro/internal/msg"
	"repro/internal/net"
	"repro/internal/obs"
)

// Ordering selects the problem variation (Table 1 of the paper).
type Ordering int

const (
	// GlobalOrder is uniform global total order multicast from μ
	// (Algorithm 1). The default.
	GlobalOrder Ordering = iota
	// StrictOrder additionally respects real time using the indicator
	// detectors 1^{g∩h} (§6.1); use it under state-machine replication.
	StrictOrder
	// PairwiseOrder is the weaker §7 variation, for acyclic topologies.
	PairwiseOrder
	// StronglyGenuine hosts the intersection coordination inside g∩h with
	// Ω_{g∩h} ∧ Σ_{g∩h} so destination groups progress in isolation
	// (§6.2); meaningful when the topology has no cyclic family.
	StronglyGenuine
	// GenericOrder is generic atomic multicast: total order is enforced only
	// within pairs the Config.Conflict relation says conflict, and a message
	// that commutes with everything is delivered without any cross-group
	// coordination. With a nil Conflict every pair conflicts and the
	// behaviour is exactly GlobalOrder.
	GenericOrder
)

// Backend selects the substrate the protocol runs over. The node logic is
// identical on both — see internal/core's Backend interfaces.
type Backend int

const (
	// Sim runs over ideal in-memory shared objects inside the
	// deterministic virtual-time engine: reproducible from the seed,
	// validated step accounting, crash scheduling in virtual time. The
	// default.
	Sim Backend = iota
	// Live runs over the real message-passing stack: every log a
	// replicated state machine (internal/replog, paxos per hosting group)
	// on an in-process transport, nodes stepped by goroutines, crashes
	// injected on the wire. Wall-clock, so not reproducible step-for-step;
	// validated by the same specification checkers.
	Live
)

// Topology declares processes and named destination groups.
type Topology struct {
	n      int
	names  []string
	sets   []groups.ProcSet
	byName map[string]groups.GroupID
	err    error
}

// NewTopology starts a topology over n processes (numbered 0..n-1).
func NewTopology(n int) *Topology {
	return &Topology{n: n, byName: make(map[string]groups.GroupID)}
}

// Group declares a destination group. Declaration order defines group IDs.
func (t *Topology) Group(name string, members ...int) *Topology {
	if t.err != nil {
		return t
	}
	if _, dup := t.byName[name]; dup {
		t.err = fmt.Errorf("multicast: duplicate group %q", name)
		return t
	}
	var s groups.ProcSet
	for _, m := range members {
		if m < 0 || m >= t.n {
			t.err = fmt.Errorf("multicast: member %d of %q out of range", m, name)
			return t
		}
		s = s.Add(groups.Process(m))
	}
	t.byName[name] = groups.GroupID(len(t.names))
	t.names = append(t.names, name)
	t.sets = append(t.sets, s)
	return t
}

// Config tunes a System.
type Config struct {
	// Backend selects the substrate (default Sim). With Live, the run is
	// wall-clock: Crashes times are ticks of roughly a millisecond,
	// AccountCosts is unavailable, and Run waits for delivery instead of
	// driving a scheduler.
	Backend Backend
	// Ordering selects the problem variation (default GlobalOrder).
	Ordering Ordering
	// Seed makes the schedule reproducible (Sim backend).
	Seed int64
	// DetectorDelay is the stabilisation lag of the failure detectors
	// (how long after a crash μ's components converge). Default 8 ticks.
	DetectorDelay int64
	// AccountCosts enables the §4.3 cost model: per-process step charges
	// and message counts for every shared-object operation. Sim only.
	AccountCosts bool
	// Crashes schedules failures: process → virtual crash time.
	Crashes map[int]int64
	// Observe selects the observability level of the run (default
	// obs.LevelAll: full event timeline, latency samples, coordination
	// counts). obs.LevelCounters drops the timeline; obs.LevelOff records
	// nothing, and Report then returns obs.ErrNotAccounted.
	Observe obs.Level
	// Conflict is the commutativity relation of GenericOrder: it reports
	// whether two messages conflict, i.e. must be delivered in the same
	// relative order at every common destination. It must be symmetric, and
	// a message that does not conflict with itself is treated as commuting
	// with every message (the fast-delivery path). Requires Ordering ==
	// GenericOrder; nil under GenericOrder means every pair conflicts.
	// KeyConflict builds the common key-equality relation for KV payloads.
	Conflict func(a, b Message) bool
}

// validate normalises the configuration and checks everything that does not
// need the built topology, returning the first problem found. n is the
// process count of the topology under construction.
func (cfg *Config) validate(n int) error {
	switch cfg.Backend {
	case Sim, Live:
	default:
		return fmt.Errorf("multicast: unknown backend %d", cfg.Backend)
	}
	switch cfg.Ordering {
	case GlobalOrder, StrictOrder, PairwiseOrder, StronglyGenuine, GenericOrder:
	default:
		return fmt.Errorf("multicast: unknown ordering %d", cfg.Ordering)
	}
	if cfg.Conflict != nil && cfg.Ordering != GenericOrder {
		return errors.New("multicast: Conflict requires Ordering == GenericOrder")
	}
	if cfg.Backend == Live && cfg.AccountCosts {
		return errors.New("multicast: AccountCosts requires the Sim backend")
	}
	for p, at := range cfg.Crashes {
		if p < 0 || p >= n {
			return fmt.Errorf("multicast: crash of out-of-range process %d", p)
		}
		if at < 0 {
			return fmt.Errorf("multicast: negative crash time %d for process %d", at, p)
		}
	}
	if cfg.DetectorDelay == 0 {
		cfg.DetectorDelay = 8
	}
	return nil
}

// System is a runnable multicast instance.
type System struct {
	topo   *groups.Topology
	names  []string
	byName map[string]groups.GroupID
	rec    *obs.Recorder
	sh     *core.Shared // the run's shared state, on either backend
	run    run          // the backend's system, whichever it is
	sys    *core.System // Sim backend (nil under Live)
	lsys   *live.System // Live backend (nil under Sim)
}

// run is what the facade asks of either backend's system in the same way;
// core.System and live.System both implement it.
type run interface {
	Multicast(src groups.Process, dst groups.GroupID, payload []byte) *msg.Message
	Check() []*check.Violation
	Report() obs.RunReport
}

// ErrUnknownGroup is returned for group names that were never declared.
var ErrUnknownGroup = errors.New("multicast: unknown group")

// ErrRunTimeout is wrapped by Run/RunContext when the run was cut short by
// a deadline or cancellation before reaching its goal.
var ErrRunTimeout = errors.New("multicast: run cancelled before completion")

// ErrStepBudget is wrapped by Run/RunContext when a Sim run exhausted its
// step budget without quiescing (a liveness failure in the scenario).
var ErrStepBudget = errors.New("multicast: run did not quiesce within the step budget")

// New builds a system from a topology and a configuration.
func New(t *Topology, cfg Config) (*System, error) {
	if t.err != nil {
		return nil, t.err
	}
	if len(t.sets) == 0 {
		return nil, errors.New("multicast: no destination groups declared")
	}
	if err := cfg.validate(t.n); err != nil {
		return nil, err
	}
	topo, err := groups.New(t.n, t.sets...)
	if err != nil {
		return nil, err
	}
	pat := failure.NewPattern(t.n)
	for p, at := range cfg.Crashes {
		pat = pat.WithCrash(groups.Process(p), failure.Time(at))
	}
	var variant core.Variant
	switch cfg.Ordering {
	case StrictOrder:
		variant = core.Strict
	case PairwiseOrder:
		variant = core.Pairwise
	case StronglyGenuine:
		variant = core.StronglyGenuine
	case GenericOrder:
		variant = core.Generic
	default:
		variant = core.Vanilla
	}
	if cfg.Ordering == PairwiseOrder && topo.HasCyclicFamilies() {
		return nil, errors.New("multicast: pairwise ordering requires an acyclic topology (F = ∅, §7)")
	}
	rec := obs.NewRecorder(obs.Options{
		Level:     cfg.Observe,
		WallClock: cfg.Backend == Live,
	})
	names := append([]string(nil), t.names...)
	byName := make(map[string]groups.GroupID, len(t.byName))
	for n, g := range t.byName {
		byName[n] = g
	}
	opt := core.Options{
		Variant:       variant,
		ChargeObjects: cfg.AccountCosts,
		FD:            fd.Options{Delay: failure.Time(cfg.DetectorDelay), Seed: cfg.Seed},
		Rec:           rec,
	}
	if cfg.Conflict != nil {
		rel := cfg.Conflict
		lift := func(m *msg.Message) Message {
			return Message{ID: int64(m.ID), Src: int(m.Src), Group: names[m.Dst], Payload: m.Payload}
		}
		opt.Conflict = func(a, b *msg.Message) bool { return rel(lift(a), lift(b)) }
	}
	s := &System{topo: topo, names: names, byName: byName, rec: rec}
	if cfg.Backend == Live {
		s.lsys = live.NewSystem(topo, pat, net.New(t.n), live.Config{Opt: opt})
		s.sh, s.run = s.lsys.Sh, s.lsys
		s.lsys.Start()
		return s, nil
	}
	s.sys = core.NewSystem(topo, pat, opt, cfg.Seed)
	s.sh, s.run = s.sys.Sh, s.sys
	return s, nil
}

// groupID resolves a group name via the map the Topology built (O(1)).
func (s *System) groupID(name string) (groups.GroupID, error) {
	if g, ok := s.byName[name]; ok {
		return g, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownGroup, name)
}

// Message identifies an issued multicast.
type Message struct {
	ID      int64
	Src     int
	Group   string
	Payload []byte
}

// KeyConflict builds a Conflict relation for key-addressed (KV) payloads:
// extract returns the key a payload operates on, with ok == false for
// payloads that touch no key at all. Two keyed messages conflict iff their
// keys are equal; a keyless message commutes with everything — including
// itself — which is exactly what routes it onto the coordination-free fast
// delivery path under GenericOrder.
func KeyConflict(extract func(payload []byte) (key string, ok bool)) func(a, b Message) bool {
	return func(a, b Message) bool {
		ka, oka := extract(a.Payload)
		kb, okb := extract(b.Payload)
		if !oka || !okb {
			return false
		}
		return ka == kb
	}
}

// Multicast issues a multicast from process src to the named group. The
// sender must belong to the group (closed dissemination model).
func (s *System) Multicast(src int, group string, payload []byte) (Message, error) {
	g, err := s.groupID(group)
	if err != nil {
		return Message{}, err
	}
	if !s.topo.Group(g).Has(groups.Process(src)) {
		return Message{}, fmt.Errorf("multicast: sender %d not in group %q", src, group)
	}
	m := s.run.Multicast(groups.Process(src), g, payload)
	return Message{ID: int64(m.ID), Src: src, Group: group, Payload: payload}, nil
}

// MulticastAt schedules a multicast at a virtual time (useful together with
// Crashes to build failure scenarios).
func (s *System) MulticastAt(at int64, src int, group string, payload []byte) error {
	g, err := s.groupID(group)
	if err != nil {
		return err
	}
	if !s.topo.Group(g).Has(groups.Process(src)) {
		return fmt.Errorf("multicast: sender %d not in group %q", src, group)
	}
	if s.lsys != nil {
		return errors.New("multicast: MulticastAt requires the Sim backend (live runs are wall-clock)")
	}
	s.sys.MulticastAt(failure.Time(at), groups.Process(src), g, payload)
	return nil
}

// Run drives the system to quiescence. It delegates to RunContext: on the
// Sim backend under a background context; on the Live backend under a fixed
// 60s safety bound — pass a deadline via RunContext to control it.
func (s *System) Run() error {
	ctx := context.Background()
	if s.lsys != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
	}
	return s.RunContext(ctx)
}

// RunContext drives the system to quiescence under a context. On the Sim
// backend it steps the deterministic engine, polling the context between
// scheduling batches; on the Live backend it waits until every issued
// multicast is delivered at every correct destination member and then stops
// the substrate — cancellation mid-run stops the substrate cleanly (trace
// frozen first, then transport closed, then goroutines joined).
//
// The error wraps typed sentinels callers can branch on with errors.Is:
// ErrRunTimeout (with the context's own error) when the context ended the
// run, ErrStepBudget when a Sim run exhausted its step budget.
func (s *System) RunContext(ctx context.Context) error {
	if s.lsys != nil {
		ok := s.lsys.AwaitDeliveryCtx(ctx)
		s.lsys.Stop()
		if !ok {
			return fmt.Errorf("multicast: live run did not reach full delivery: %w (%w)", ErrRunTimeout, context.Cause(ctx))
		}
		return nil
	}
	outcome := s.sys.RunInterruptible(func() bool { return ctx.Err() != nil })
	switch outcome {
	case engine.Quiesced:
		return nil
	case engine.Stopped:
		return fmt.Errorf("multicast: sim run interrupted: %w (%w)", ErrRunTimeout, context.Cause(ctx))
	default:
		return ErrStepBudget
	}
}

// Delivery is one delivered message at a process.
type Delivery struct {
	Message Message
	At      int64
}

// Delivered returns the delivery order at process p.
func (s *System) Delivered(p int) []Delivery {
	var out []Delivery
	for _, d := range s.sh.Deliveries() {
		if d.P != groups.Process(p) {
			continue
		}
		m := s.sh.Reg.Get(d.M)
		at, _ := s.sh.FirstDeliveredAt(d.M)
		out = append(out, Delivery{
			Message: Message{
				ID:      int64(m.ID),
				Src:     int(m.Src),
				Group:   s.names[m.Dst],
				Payload: m.Payload,
			},
			At: int64(at),
		})
	}
	return out
}

// Validate checks the completed run against the specification (integrity,
// termination, ordering, genuineness — plus real-time order for
// StrictOrder systems) and returns the violations.
func (s *System) Validate() []error {
	var out []error
	for _, v := range s.run.Check() {
		out = append(out, v)
	}
	return out
}

// Report returns the run's observability: delivery-latency summaries,
// per-process footprints, per-pair g∩h coordination counts, the event
// timeline, and — on the Live backend — the substrate counters (transport
// packets/bytes per link, paxos rounds, replog applies, chaos injections).
//
// Quantities the run did not measure surface as obs.ErrNotAccounted — from
// this method when observability was disabled (Config.Observe ==
// obs.LevelOff), and from the report's own accessors (RunReport.StepsOf,
// RunReport.SentMessages) for backend-specific ledgers — never as
// fabricated zeros.
func (s *System) Report() (obs.RunReport, error) {
	if s.rec == nil {
		return obs.RunReport{}, fmt.Errorf("%w: observability disabled (Config.Observe = LevelOff)", obs.ErrNotAccounted)
	}
	return s.run.Report(), nil
}

// CyclicFamilies renders the cyclic families of the topology (the structure
// γ tracks), as lists of group names.
func (s *System) CyclicFamilies() [][]string {
	var out [][]string
	for _, f := range s.topo.Families() {
		var fam []string
		for _, g := range f.Groups.Members() {
			fam = append(fam, s.names[g])
		}
		out = append(out, fam)
	}
	return out
}

// Core exposes the underlying core system for advanced uses (benchmarks,
// research tooling); nil on the Live backend. The core API is not covered
// by compatibility guarantees.
func (s *System) Core() *core.System { return s.sys }
