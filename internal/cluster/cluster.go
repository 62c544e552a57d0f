// Package cluster scales the simulation past one server: N
// independent sched.Engine instances — each its own disk farm,
// tertiary device, and station pool — advanced in lockstep rounds on
// one integer interval clock, fed by one cluster-wide Poisson arrival
// stream that a dispatch policy routes to a member server
// (DESIGN.md §13).  One member is a fleet of one: it steps the same
// rounds on the same shared streams.  The paper sizes a single server
// (D disks bound its bandwidth no matter how clever the striping);
// ROADMAP's millions-of-users north star is this layer's N-fold
// aggregate.
//
// The engines expose steppable primitives (Prime / StepOne /
// ResetWindow / Snapshot) precisely so this driver can interleave
// them, and they draw per-instance randomness from
// rng.NewStream(seed, server) splits so adding a server never
// perturbs its siblings' trajectories.
package cluster

import (
	"fmt"
	"math"

	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/sched"
)

// Config describes one cluster run.
type Config struct {
	// Servers is the member count, at least 1.
	Servers int

	// Technique and Stride select the engine configuration through the
	// technique registry ("" means striped; stride 0 the technique
	// default).  Every member runs the same technique.
	Technique string
	Stride    int

	// Dispatch is the arrival-routing policy key (see Policies); ""
	// means roundrobin.
	Dispatch string

	// Base is the per-server configuration: farm geometry, station
	// pool, cache tier, and measurement windows all apply to each
	// member individually, while the workload fields describe the
	// cluster as a whole: ArrivalsPerHour (required positive) is the
	// cluster-wide offered load (the shared Poisson stream this
	// driver owns and dispatches), and ZipfSkew/DistMean shape the
	// shared object draw, which FlipAt churns.  Base.Seed seeds the
	// cluster streams; member engine i runs under the split seed
	// rng.NewStream(Seed, i+1).
	Base sched.Config

	// ServerFaults optionally gives each member its own fault plan
	// (index = server; shorter slices leave the tail fault-free),
	// overriding Base.Faults for every member — the chaos harness uses
	// it to fail disks on one server and assert the siblings are
	// untouched.
	ServerFaults []*fault.Plan

	// ServerPlan optionally schedules whole-member failures
	// (fault.FailServer / FailServerUntil / ServerWearProcess,
	// DESIGN.md §14): a killed member aborts its in-flight displays,
	// its queued requests re-route to survivors through the dispatch
	// policy, and a restart rejoins it with cold RAM but warm disks.
	// Member indexes must be < Servers.  An arrival that finds every
	// member dead — a lone member included — is counted lost.
	ServerPlan *fault.Plan

	// HealBudget bounds how many replicas the healing pass re-creates
	// per healing window (one display length, Base.Subobjects
	// intervals) after a kill (0 disables healing).  Each object the
	// dead member held goes to the least-loaded live non-holder,
	// hottest first.
	HealBudget int

	// ReplicaDepth scales the build-time replica ladder: depth d gives
	// the rank-r object min(Servers, max(1, Servers·d >> floor(log2(r+1))))
	// copies, so higher depths keep more of the catalog multi-homed —
	// the survivability knob experiment E21 sweeps.  0 or 1 is the
	// default ladder.
	ReplicaDepth int

	// SampleIntervals, when positive, samples the cluster-wide
	// cumulative completed-display count every that many intervals of
	// the shared clock — the recovery curves of experiment E21.
	SampleIntervals int

	// FlipAt, when positive, is the interval at which popularity
	// churns: from that round on the shared object draw is rotated by
	// half the catalog, so the distribution's hot head lands on what
	// were median objects and the old head goes cold — the scenario the
	// cache tier's popularity decay and the popularity dispatch must
	// re-converge under (DESIGN.md §12).  0 never flips.
	FlipAt int
}

// Sample is one point of the cluster's recovery curve: the cumulative
// completed displays (warm-up included) across all members at a shared-
// clock instant.
type Sample struct {
	Seconds  float64
	Displays int
}

// Result is the outcome of one cluster run.
type Result struct {
	// Aggregate merges every member's Result (metrics.Run.Merge):
	// displays, requests, and latency observations add across the
	// cluster over the common measurement window, so
	// Aggregate.Throughput() is cluster displays per hour.
	Aggregate sched.Result
	// Servers holds each member's own Result, in server order.
	Servers []sched.Result
	// Dispatch is the routing policy that ran.
	Dispatch string
	// Routed counts the measurement-window arrivals dispatched to each
	// server.
	Routed []int
	// NoHolder counts measurement-window popularity dispatches that
	// found no live server holding the object and fell back to least
	// loaded among live members (always 0 for other policies).
	NoHolder int

	// FailedOver counts measurement-window dispatches whose natural
	// target was dead and that re-routed to a live member.  For
	// leastloaded the natural target is the global load argmin
	// including dead members — a drained dead member reports zero
	// load, so nearly every dispatch during an outage counts here;
	// read it as availability pressure, not as an error count.
	FailedOver int
	// OrphanedRequests counts requests drained from killed members'
	// disk queues and batch registries.  Each one is re-admitted to a
	// survivor or dropped, so OrphanedRequests == ReAdmitted +
	// ReAdmitDropped always (displays killed mid-delivery are counted
	// in the members' OrphanedDisplays instead).
	OrphanedRequests int
	// ReAdmitted counts orphaned requests a survivor accepted.
	ReAdmitted int
	// ReAdmitDropped counts orphaned requests nobody could take
	// (every member dead, or the target had no idle station).
	ReAdmitDropped int
	// LostArrivals counts fresh arrivals that found every member dead.
	LostArrivals int
	// HealedReplicas counts replicas the healing pass re-created on
	// survivors (Config.HealBudget).
	HealedReplicas int
	// RedistributeSeconds is the longest span from a kill to its heal
	// queue draining — the time-to-redistribute of the dead member's
	// catalog (0 when healing is off or never triggered).
	RedistributeSeconds float64
	// Samples is the recovery curve (Config.SampleIntervals).
	Samples []Sample
}

// Sim is one cluster simulation.  Build with New, run once with Run.
type Sim struct {
	cfg     Config
	engines []*sched.Engine
	res     *sched.Residency // which members hold each object, kept by the members
	policy  policy
	cursor  int // roundrobin's next member
	dt      float64

	// Cluster-owned arrival process.
	arrStream rng.Stream
	objStream rng.Stream
	dist      *rng.Discrete
	rotate    int // popularity-churn offset: half the catalog once FlipAt fired, else 0
	nextAt    float64
	meanGap   float64

	// out holds the ledgers Run returns, counted in place.  The
	// dispatch counters (Routed, NoHolder, FailedOver) are reset at the
	// warm-up boundary; the failover ledgers (DESIGN.md §14) are
	// lifetime, never window-reset: the chaos harness asserts
	// OrphanedRequests == ReAdmitted + ReAdmitDropped over the whole
	// run.  Run fills in the members' Results.
	out Result

	// Server-failover state (DESIGN.md §14).
	serverEvents []fault.Event // not yet applied, in time order
	assignments  [][]int       // build-time replica table, the healing source
	delivered    int           // fresh arrivals handed to a member, lifetime
	healQueue    []healEntry
	healStart    int // interval of the kill that opened the episode
	redistribute int // longest heal episode, in intervals

	// stepCheck, when set, runs just before and just after every heal
	// pass and after every round: the tests' continuous invariant
	// checks.  Nothing outside tests sets it.
	stepCheck func(t int, at checkPoint)
	// pickCheck, when set, sees every leastLoaded choice: the tests'
	// check of the residency-word walk against the per-member probes.
	pickCheck func(obj int, holders bool, target int)

	ran bool
}

// checkPoint names where in round t the stepCheck hook runs.
type checkPoint int

const (
	beforeHeal checkPoint = iota // the round's heal pass is about to run
	afterHeal                    // the heal pass has run
	roundEnd                     // every member has stepped
)

// check runs the test-only stepCheck hook, when one is set.
func (s *Sim) check(t int, at checkPoint) {
	if s.stepCheck != nil {
		s.stepCheck(t, at)
	}
}

// healEntry is one replica the healing pass still owes the cluster:
// an object the killed member `from` held at its death.
type healEntry struct {
	obj  int
	from int
}

// New validates the configuration and builds the member engines,
// including the build-time replica placement the popularity policy
// routes against.
func New(cfg Config) (*Sim, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("cluster: need at least one server, got %d", cfg.Servers)
	}
	key := cfg.Technique
	if key == "" {
		key = "striped"
	}
	ti, ok := sched.TechniqueByKey(key)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown technique %q", key)
	}
	base, err := ti.Configure(cfg.Base, cfg.Stride)
	if err != nil {
		return nil, err
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	pol, err := parsePolicy(cfg.Dispatch)
	if err != nil {
		return nil, err
	}
	if len(cfg.ServerFaults) > cfg.Servers {
		return nil, fmt.Errorf("cluster: %d fault plans for %d servers", len(cfg.ServerFaults), cfg.Servers)
	}
	if err := cfg.ServerPlan.ValidateServers(cfg.Servers); err != nil {
		return nil, err
	}
	if cfg.HealBudget < 0 {
		return nil, fmt.Errorf("cluster: HealBudget must be non-negative")
	}
	if cfg.ReplicaDepth < 0 {
		return nil, fmt.Errorf("cluster: ReplicaDepth must be non-negative")
	}
	if cfg.SampleIntervals < 0 {
		return nil, fmt.Errorf("cluster: SampleIntervals must be non-negative")
	}
	if cfg.FlipAt < 0 {
		return nil, fmt.Errorf("cluster: FlipAt must be non-negative")
	}

	if base.ArrivalsPerHour <= 0 {
		return nil, fmt.Errorf("cluster: need an open workload (Base.ArrivalsPerHour > 0)")
	}
	s := &Sim{cfg: cfg, policy: pol, dt: base.IntervalSeconds()}

	// Cluster-owned workload streams.  The object distribution is the
	// same one the engines would draw from; the arrival process is the
	// cluster-wide offered load.
	src := rng.NewSource(base.Seed)
	s.arrStream = *src.Stream("cluster/arrivals")
	s.objStream = *src.Stream("cluster/objects")
	if s.dist, err = base.Popularity(); err != nil {
		return nil, err
	}
	s.meanGap = 3600 / base.ArrivalsPerHour
	s.nextAt = s.arrStream.Exp(s.meanGap)

	depth := cfg.ReplicaDepth
	if depth == 0 {
		depth = 1
	}
	s.assignments = replicaAssignments(base.Objects, cfg.Servers, base.DefaultPreload(), depth)
	s.serverEvents = cfg.ServerPlan.Events()

	s.engines = make([]*sched.Engine, cfg.Servers)
	s.res = sched.NewResidency(base.Objects, cfg.Servers)
	for i := range s.engines {
		scfg := base
		// Per-instance randomness: a split of the cluster seed, so
		// member trajectories are independent and adding a server
		// never perturbs the existing ones.
		scfg.Seed = rng.NewStream(base.Seed, uint64(i+1)).Uint64()
		scfg.ArrivalsPerHour = 0
		scfg.Faults = base.Faults
		if i < len(cfg.ServerFaults) {
			scfg.Faults = cfg.ServerFaults[i]
		}
		e, err := ti.NewMember(scfg, s.dist, s.assignments[i])
		if err == nil {
			err = e.ShareResidency(s.res, i)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: server %d: %w", i, err)
		}
		s.engines[i] = e
	}
	s.out.Routed = make([]int, cfg.Servers)
	return s, nil
}

// SetTracer installs f, which must not be nil, on every member
// (Engine.SetTracer): f sees each member's events with the member's
// index.  Call it before Run; without it no member traces.
func (s *Sim) SetTracer(f func(member int, ev sched.Event)) {
	for i, e := range s.engines {
		e.SetTracer(func(ev sched.Event) { f(i, ev) })
	}
}

// Starvation returns the first member's starvation diagnosis
// (Engine.Starvation: materializations abandoned at the Place retry
// cap, warm-up included), naming the member, or nil.  Run does not
// fail on starvation; a caller that should, as Engine.RunChecked does,
// asks here after it.
func (s *Sim) Starvation() error {
	for i, e := range s.engines {
		if err := e.Starvation(); err != nil {
			return fmt.Errorf("cluster: server %d: %w", i, err)
		}
	}
	return nil
}

// load is the dispatch policies' congestion signal for one member:
// displays in delivery plus references waiting in the disk queue.
func (s *Sim) load(i int) int {
	return s.engines[i].ActiveDisplays() + s.engines[i].QueuedRequests()
}

// dead reports whether member i is currently killed.
func (s *Sim) dead(i int) bool { return s.engines[i].Dead() }

// deliverArrivals dispatches every cluster arrival strictly before
// limit (seconds) to a member chosen by the policy, drawing each object
// from the shared popularity distribution, rotated by half the catalog
// once the churn flip has fired.  An arrival that finds every member
// dead is lost and counted.  An error is a member refusing the
// injection.
func (s *Sim) deliverArrivals(limit float64) error {
	for s.nextAt < limit {
		obj := s.dist.Sample(&s.objStream)
		if s.rotate != 0 {
			obj = (obj + s.rotate) % s.dist.Len()
		}
		target := s.pick(obj)
		if target < 0 {
			s.out.LostArrivals++
		} else {
			s.delivered++
			s.out.Routed[target]++
			if _, err := s.engines[target].InjectArrival(obj); err != nil {
				return fmt.Errorf("cluster: arrival on server %d: %w", target, err)
			}
		}
		s.nextAt += s.arrStream.Exp(s.meanGap)
	}
	return nil
}

// applyServerEvent executes one server-plan transition.  Redundant
// events (killing a dead member, reviving a live one) are absorbed; an
// error from the member's Kill or Revive is returned.
func (s *Sim) applyServerEvent(ev fault.Event) error {
	switch ev.Kind {
	case fault.ServerFail:
		return s.killServer(ev.Disk)
	case fault.ServerRepair:
		return s.reviveServer(ev.Disk)
	}
	return nil
}

// killServer takes member i down: its in-flight displays become typed
// aborts inside Engine.Kill, and every drained request is re-dispatched
// to a survivor right here — the viewer re-queues on another server
// rather than vanishing.  With healing enabled, the member's replica
// assignment joins the heal queue, hottest (lowest rank) first.
func (s *Sim) killServer(i int) error {
	e := s.engines[i]
	if e.Dead() {
		return nil
	}
	rep, err := e.Kill()
	if err != nil {
		return fmt.Errorf("cluster: kill server %d: %w", i, err)
	}
	s.out.OrphanedRequests += len(rep.Orphans)
	for _, obj := range rep.Orphans {
		target := s.pick(obj)
		if target < 0 {
			s.out.ReAdmitDropped++
			continue
		}
		s.out.Routed[target]++
		ok, err := s.engines[target].InjectArrival(obj)
		if err != nil {
			return fmt.Errorf("cluster: re-admit on server %d: %w", target, err)
		}
		if ok {
			s.out.ReAdmitted++
		} else {
			s.out.ReAdmitDropped++
		}
	}
	if s.cfg.HealBudget > 0 {
		wasEmpty := len(s.healQueue) == 0
		for _, obj := range s.assignments[i] {
			if s.res.Holds(obj, i) {
				s.healQueue = append(s.healQueue, healEntry{obj: obj, from: i})
			}
		}
		if wasEmpty && len(s.healQueue) > 0 {
			s.healStart = e.Now()
		}
	}
	return nil
}

// reviveServer restarts member i in the current round.  Healing work
// owed for replicas the member brings back with its surviving disks is
// dropped.
func (s *Sim) reviveServer(i int) error {
	e := s.engines[i]
	if !e.Dead() {
		return nil
	}
	if err := e.Revive(); err != nil {
		return fmt.Errorf("cluster: revive server %d: %w", i, err)
	}
	if len(s.healQueue) > 0 {
		kept := s.healQueue[:0]
		for _, h := range s.healQueue {
			if h.from != i {
				kept = append(kept, h)
			}
		}
		s.healQueue = kept
		if len(kept) == 0 {
			s.endHealEpisode(e.Now())
		}
	}
	return nil
}

// healPass re-creates up to HealBudget replicas from the heal queue:
// each goes to the least-loaded live member not already holding the
// object.  An entry nobody can take (every live member holds it, or
// every member is dead) is dropped; an entry the target has no room
// for stays at the head for the next window.
func (s *Sim) healPass(now int) {
	budget := s.cfg.HealBudget
	for budget > 0 && len(s.healQueue) > 0 {
		h := s.healQueue[0]
		target, tl := -1, 0
		for j := range s.engines {
			if s.dead(j) || s.res.Holds(h.obj, j) {
				continue
			}
			if l := s.load(j); target < 0 || l < tl {
				target, tl = j, l
			}
		}
		if target < 0 {
			s.healQueue = s.healQueue[1:]
			continue
		}
		if !s.engines[target].AdoptObject(h.obj) {
			break // no room anywhere useful this window; retry next
		}
		s.out.HealedReplicas++
		budget--
		s.healQueue = s.healQueue[1:]
	}
	if len(s.healQueue) == 0 {
		s.endHealEpisode(now)
	}
}

// endHealEpisode records the time-to-redistribute of a drained heal
// queue at interval now; the Result reports the longest episode.
func (s *Sim) endHealEpisode(now int) {
	if d := now - s.healStart; d > s.redistribute {
		s.redistribute = d
	}
	s.healStart = now
}

// takeSample appends one recovery-curve point: the cluster-wide
// cumulative completed-display count at the start of round t.
func (s *Sim) takeSample(t int) {
	sum := 0
	for _, e := range s.engines {
		sum += e.CompletedDisplays()
	}
	s.out.Samples = append(s.out.Samples, Sample{Seconds: float64(t) * s.dt, Displays: sum})
}

// Run executes the cluster to its horizon and returns the merged
// statistics.  A second call returns sched.ErrAlreadyRun.  Every member
// shares Base's interval, so the cluster steps in lockstep rounds of
// one interval, each in the fixed phase order below (DESIGN.md §13).
// Every member steps every round; a dead one only keeps the clock
// until its restart event.
func (s *Sim) Run() (Result, error) {
	if s.ran {
		return Result{}, sched.ErrAlreadyRun
	}
	s.ran = true
	base := s.engines[0].Config()
	warm, end := base.WarmupIntervals, base.WarmupIntervals+base.MeasureIntervals
	for t := 0; t < end; t++ {
		for ; len(s.serverEvents) > 0 && s.serverEvents[0].At <= t; s.serverEvents = s.serverEvents[1:] {
			if err := s.applyServerEvent(s.serverEvents[0]); err != nil {
				return Result{}, err
			}
		}
		if t == warm {
			for _, e := range s.engines {
				e.ResetWindow()
			}
			clear(s.out.Routed)
			s.out.NoHolder, s.out.FailedOver = 0, 0
		}
		if t > 0 && s.cfg.SampleIntervals > 0 && t%s.cfg.SampleIntervals == 0 {
			s.takeSample(t)
		}
		if t > 0 && s.cfg.HealBudget > 0 && t%base.Subobjects == 0 && len(s.healQueue) > 0 {
			s.check(t, beforeHeal)
			s.healPass(t)
			s.check(t, afterHeal)
		}
		// The churn flip rotates the shared draw before the round's
		// arrivals are routed.
		if t > 0 && t == s.cfg.FlipAt {
			s.rotate = (s.dist.Len() + 1) / 2
		}
		if err := s.deliverArrivals(float64(t+1) * s.dt); err != nil {
			return Result{}, err
		}
		for _, e := range s.engines {
			e.StepOne()
		}
		s.check(t, roundEnd)
	}
	res := s.out
	res.Dispatch = Policies()[s.policy]
	res.RedistributeSeconds = float64(s.redistribute) * s.dt
	res.Servers = make([]sched.Result, len(s.engines))
	for i, e := range s.engines {
		res.Servers[i] = e.Snapshot()
	}
	res.Aggregate = res.Servers[0]
	for _, r := range res.Servers[1:] {
		res.Aggregate.Merge(r)
	}
	return res, nil
}

// replicaAssignments spreads object replicas across n servers by
// popularity rank at build time: the hottest object is resident on
// every server, and each doubling of rank halves the copy count down
// to a floor of one, so every object has a holder while capacity
// lasts (the popularity policy's routing table).  depth scales the
// whole ladder (depth 2 doubles every band's copies, capped at n) —
// deeper ladders keep more of the catalog multi-homed, which is what
// survives a member kill.  Copies go to the least-filled eligible
// servers (ties to the lowest index), which both balances the
// build-time load and is deterministic.  perServer caps each member's
// resident objects at its farm capacity; objects past the aggregate
// capacity stay unplaced and materialize on demand.
func replicaAssignments(objects, n, perServer, depth int) [][]int {
	out := make([][]int, n)
	counts := make([]int, n)
	for rank := 0; rank < objects; rank++ {
		copies := (n * depth) >> bandOf(rank)
		if copies < 1 {
			copies = 1
		}
		if copies > n {
			copies = n
		}
		taken := make([]bool, n)
		for c := 0; c < copies; c++ {
			best := -1
			for i := 0; i < n; i++ {
				if taken[i] || counts[i] >= perServer {
					continue
				}
				if best < 0 || counts[i] < counts[best] {
					best = i
				}
			}
			if best < 0 {
				break
			}
			taken[best] = true
			counts[best]++
			out[best] = append(out[best], rank)
		}
	}
	return out
}

// bandOf returns floor(log2(rank+1)): rank 0 is band 0, ranks 1-2
// band 1, ranks 3-6 band 2, and so on.
func bandOf(rank int) int {
	return int(math.Ilogb(float64(rank + 1)))
}
