package sched

import (
	"fmt"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/policy"
	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/tertiary"
	"github.com/mmsim/staggered/internal/workload"
)

// requestQueue is the admission queue in arrival order: a doubly
// linked list over stations.  A station has at most one outstanding
// request (workload.Stations), so it is the request's node and handle;
// a request joins at the tail and leaves from anywhere in O(1).  Its
// object and arrival stay readable after the unlink until the station
// queues again: a deferred refusal reads them there.
type requestQueue struct {
	node       []queueNode // station -> its node
	head, tail int32       // stations, -1 when empty
	n          int
}

type queueNode struct {
	prev, next int32 // neighbours in the queue, -1 at the ends
	obj, at    int32 // queued object, arrival interval
}

// push appends station s's request for obj, arrived at interval at.
func (q *requestQueue) push(s, obj, at int32) {
	q.node[s] = queueNode{prev: q.tail, next: -1, obj: obj, at: at}
	if q.tail < 0 {
		q.head = s
	} else {
		q.node[q.tail].next = s
	}
	q.tail = s
	q.n++
}

// unlink removes station s's request.
func (q *requestQueue) unlink(s int32) {
	p, n := q.node[s].prev, q.node[s].next
	if p < 0 {
		q.head = n
	} else {
		q.node[p].next = n
	}
	if n < 0 {
		q.tail = p
	} else {
		q.node[n].prev = p
	}
	q.n--
}

// Technique is the policy half of an interval engine: everything that
// differs between the striping family (virtual-disk-granular claims,
// staggered placement probes, LFU whole-object eviction) and the
// virtual-data-replication baseline (cluster-granular claims, dynamic
// replication, marginal-value replica eviction).  The Engine owns the
// mechanism — workload arrivals, the request queue, station reissue,
// window counters, and Result assembly — and calls the
// technique at the four points of an interval where policy decides
// what happens.
//
// Implementations live in this package and are exposed through the
// technique registry (see registry.go); they hold their own stores,
// occupancy tables, and event buckets, and reach shared state through
// the Engine they are bound to.
type Technique interface {
	// name returns the display name reported in Result.Technique.
	name() string
	// bind wires the technique to its engine: validate geometry,
	// allocate stores and event buckets, and preload the farm.
	bind(e *Engine) error
	// onEnqueue observes station s's newly queued reference, after the
	// engine has recorded it (queue, pin count, LFU touch, trace event).
	onEnqueue(s int32)
	// onFault observes one effective fault transition, after the
	// engine has updated its masks: reconcile technique state — abort
	// or degrade in-flight work touching the faulted component.  The
	// engine dedups the plan, so a DiskFail only arrives for an up
	// disk, a DiskRepair only for a down one, and so on.
	onFault(ev fault.Event)
	// activeDisplays counts the displays currently in delivery, for
	// the chaos harness's conservation invariant
	// (admitted = completed + aborted + active).
	activeDisplays() int
	// interval runs one interval of policy work in the engine's fixed
	// phase order — claim endings due now, one tick of tertiary
	// materialization, the admission scan, and any end-of-interval
	// work (Algorithm 2 coalescing) — and returns the number of disks
	// occupied during the interval, the integrand of the farm-busy
	// statistic.  It is a single dispatch per interval so the phases
	// stay statically-dispatched (and inlinable) inside the
	// implementation: the engines run millions of intervals per
	// sweep.
	interval() int
	// uniqueResidents counts the distinct objects on disk, for the
	// end-of-run Result.
	uniqueResidents() int
	// holdsObject reports whether the object is playable from disk
	// right now — resident and fully materialized — for the cluster
	// layer's popularity dispatch (route to a replica holder).
	holdsObject(id int) bool
	// killActive aborts every in-flight policy job — displays, copies,
	// the staging pipeline — and resets queue-derived technique state
	// (the engine drains its request queue immediately after, so pin
	// counts are about to go to zero).  Part of Engine.Kill.
	killActive()
	// adoptObject places a full copy of the object on this member as
	// part of the cluster's replica-healing pass, without consuming the
	// tertiary device (the healing budget is the bandwidth model).  It
	// reports whether the copy was actually placed.
	adoptObject(id int) bool
}

// Engine is the shared mechanism of the interval engines: the
// interval loop, the workload's stations, the admission queue, the
// window counters, and Result assembly, parameterized by a Technique
// that supplies placement, claim granularity, materialization
// footprint, and replacement policy.  All per-interval work is
// event-driven (see the technique implementations); an interval in
// which nothing happens costs O(1).
type Engine struct {
	cfg      Config
	tech     Technique
	techName string // tech.name(), formatted once at build

	lfu  *policy.LFU
	tman *tertiary.Manager
	dist *rng.Discrete // object popularity, shared by a cluster's members
	gen  *workload.Generator
	stn  *workload.Stations

	// member marks a cluster member (TechniqueInfo.NewMember): its
	// arrivals come only through InjectArrival, so it has no
	// generator (gen is nil), and its technique preloads exactly
	// preload instead of the most popular objects.  Its stations wait
	// in idle, a LIFO pool, between displays; OpenRejected counts the
	// window's arrivals that found the pool empty.  A standalone
	// engine is the paper's closed loop and keeps both zero.
	member  bool
	preload []int
	idle    []int32

	primed bool // Prime has run: stations seeded

	queue      requestQueue
	pinned     []int32 // object -> queued request count
	reissueBuf []int   // stations to reissue after completions
	rejectBuf  []int32 // stations whose refusal waits for the end of a queue walk

	now    int
	dt     float64 // seconds per interval, cfg.IntervalSeconds()
	tracer Tracer

	// stepCheck, when set, runs after every interval: the tests'
	// continuous invariant checks.  Nothing outside tests sets it.
	stepCheck func()

	// horizon is the length of every dueRing the engine and its
	// technique keep: one display length plus the largest startup
	// delay plus slack, so every event lies strictly inside it.
	horizon int

	// Cache tier (DESIGN.md §12).  All of this stays nil/zero when
	// Config.Cache is disabled, so the disk-only path pays one nil
	// check per hook and the golden dumps are untouched.
	cache            *cache.Tier
	followers        dueRing[followerRef] // follower display completions
	followerGen      []int32              // station -> generation, stales ring entries
	followerActive   []bool               // station -> follower display in flight
	followerObj      []int32              // station -> object the follower views
	activeFollowers  int
	pendingFollowers int
	batchAnchor      []int32 // object -> arrival interval anchoring the open batch
	detachBuf        []int32
	pendingBuf       []cache.Pending

	// The cluster's residency words, in which a member keeps bit
	// resBit of every object it holds (ShareResidency); nil on a
	// standalone engine.
	res    *Residency
	resBit int

	// Fault state.  All slices stay nil on a fault-free run (empty
	// plan) so the hot path pays a single nil check per interval.
	faultEvents  []fault.Event // sorted plan, nil when empty
	faultCursor  int
	diskFault    []uint8 // disk -> its downBit and slowBit
	downCount    int     // disks with downBit set
	faultedDisks []int32 // sorted disks with any bit: the active set of the degraded scans
	tertDown     bool

	// win holds the measurement window's counters, declared once in
	// Result: the code counts straight into their fields, ResetWindow
	// zeroes the whole struct, and Snapshot fills in the fields it
	// derives (the busy ratios, the window lengths, UniqueResidents,
	// Hiccups), which stay zero here.
	win      Result
	busyArea float64 // disk-busy integral in disk·intervals
	tertBusy int     // tertiary-busy intervals

	// Server-failover state (DESIGN.md §14).  All zero on a run that is
	// never killed, and Snapshot's normalization then reduces to the
	// pinned golden formulas exactly.
	dead         bool
	deadMeasured int // measured intervals stepped while dead

	// Lifetime counters (never window-reset): the chaos harness's
	// conservation invariant, RunChecked's starvation check and the
	// hiccup count Snapshot reports must see warm-up activity too.
	hiccups        int
	admittedTotal  int
	completedTotal int
	abortedTotal   int
	starvedTotal   int
}

// NewEngine builds a standalone engine running the given technique.
// Most callers should go through the registry (NewEngineFor or
// TechniqueInfo.New) instead.
func NewEngine(cfg Config, tech Technique) (*Engine, error) {
	return newEngine(cfg, tech, false, nil, nil)
}

// newEngine builds a standalone engine, which draws its stations'
// references from the popularity cfg describes, or, when member is
// true, a cluster member that reads the given popularity dist, draws
// nothing and preloads the given set.  Neither draws open arrivals:
// only the cluster driver does, so a positive ArrivalsPerHour is
// refused with ErrOwnArrivals.
func newEngine(cfg Config, tech Technique, member bool, dist *rng.Discrete, preload []int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ArrivalsPerHour > 0 {
		return nil, fmt.Errorf("%w (ArrivalsPerHour %v)", ErrOwnArrivals, cfg.ArrivalsPerHour)
	}
	e := &Engine{
		cfg:     cfg,
		tech:    tech,
		lfu:     policy.NewLFU(cfg.Objects),
		tman:    tertiary.NewManager(cfg.Objects),
		dist:    dist,
		stn:     workload.NewStations(cfg.Stations),
		member:  member,
		preload: preload,
		queue:   requestQueue{node: make([]queueNode, cfg.Stations), head: -1, tail: -1},
		pinned:  make([]int32, cfg.Objects),
		dt:      cfg.IntervalSeconds(),
	}
	if member {
		// LIFO in reverse so station 0 serves the first arrival.
		e.idle = make([]int32, cfg.Stations)
		for i := range e.idle {
			e.idle[i] = int32(cfg.Stations - 1 - i)
		}
	} else {
		var err error
		if e.dist, err = cfg.Popularity(); err != nil {
			return nil, err
		}
		if e.gen, err = workload.NewGeneratorDist(rng.NewSource(cfg.Seed), e.dist, cfg.Stations); err != nil {
			return nil, err
		}
	}
	_, maxDegree := cfg.degreeRange()
	e.horizon = cfg.Subobjects + cfg.maxStartup(maxDegree) + 2
	if !cfg.Faults.Empty() {
		e.faultEvents = cfg.Faults.Events()
		e.diskFault = make([]uint8, cfg.D)
	}
	if cfg.Cache.Enabled() {
		e.bindCache()
	}
	if err := tech.bind(e); err != nil {
		return nil, err
	}
	e.techName = tech.name()
	return e, nil
}

// Config returns the configuration the engine runs.
func (e *Engine) Config() Config { return e.cfg }

// enqueue issues a new reference for station s, drawn from its own
// stream.
func (e *Engine) enqueue(s int) {
	e.stn.Take(s)
	e.record(s, e.gen.Draw(s))
}

// record admits station s's reference to obj, drawn now, into the
// engine: the cache tier's chance to serve it, then the queue.  It is
// the tail of enqueue and of InjectArrival.
func (e *Engine) record(s, obj int) {
	e.win.Requests++
	if e.cache != nil {
		if e.tryCacheServe(s, obj) {
			return
		}
		if e.batchAnchor != nil && e.pinned[obj] == 0 {
			e.batchAnchor[obj] = int32(e.now)
		}
	}
	e.queueRequest(s, obj, e.now, "")
}

// queueRequest appends station s's reference to obj, arrived at
// interval at, to the queue: pin count, LFU touch, trace event,
// technique notification.
func (e *Engine) queueRequest(s, obj, at int, note string) {
	e.queue.push(int32(s), int32(obj), int32(at))
	e.pinned[obj]++
	e.lfu.Touch(obj)
	e.emit(EvRequest, obj, s, note)
	e.tech.onEnqueue(int32(s))
}

// reissue frees station s after its display.  A member's station
// goes idle and waits for the next injected arrival; in the paper's
// closed loop it issues its next request at once (zero think time).
func (e *Engine) reissue(s int) {
	if e.member {
		e.idle = append(e.idle, int32(s))
		return
	}
	e.enqueue(s)
}

// step advances the simulation by one interval: faults and follower
// completions, then the technique's policy work (claim endings, tertiary progress,
// admissions, end-of-interval work), then the busy integral — the
// same event order CSIM's process scheduling yields for this model.
func (e *Engine) step() {
	if e.faultEvents != nil {
		e.applyFaults()
	}
	if e.cache != nil {
		e.finishFollowers()
	}
	e.busyArea += float64(e.tech.interval())
	e.now++
	if e.stepCheck != nil {
		e.stepCheck()
	}
}

// applyFaults drains plan events due at or before the current
// interval, notifying the technique of each effective transition.
// Redundant events (failing a dead disk, repairing a live one) are
// absorbed here so techniques only see real state flips.
func (e *Engine) applyFaults() {
	for e.faultCursor < len(e.faultEvents) && e.faultEvents[e.faultCursor].At <= e.now {
		ev := e.faultEvents[e.faultCursor]
		e.faultCursor++
		if e.applyFault(ev) {
			e.emit(EvFault, ev.Disk, int(ev.Kind), ev.Kind.String())
			e.tech.onFault(ev)
		}
	}
}

// The bits of a disk's fault state.
const (
	downBit uint8 = 1 << iota
	slowBit
)

// applyFault applies one plan event to the fault state and reports
// whether it changed it.
func (e *Engine) applyFault(ev fault.Event) bool {
	var bit uint8
	switch ev.Kind {
	case fault.TertiaryFail, fault.TertiaryRepair:
		down := ev.Kind == fault.TertiaryFail
		changed := e.tertDown != down
		e.tertDown = down
		return changed
	case fault.DiskFail, fault.DiskRepair:
		bit = downBit
	case fault.SlowStart, fault.SlowEnd:
		bit = slowBit
	default:
		return false
	}
	set := ev.Kind == fault.DiskFail || ev.Kind == fault.SlowStart
	old := e.diskFault[ev.Disk]
	now := old &^ bit
	if set {
		now |= bit
	}
	if now == old {
		return false
	}
	e.diskFault[ev.Disk] = now
	if bit == downBit {
		if set {
			e.downCount++
		} else {
			e.downCount--
		}
	}
	switch {
	case old == 0:
		e.addFaulted(ev.Disk)
	case now == 0:
		e.removeFaulted(ev.Disk)
	}
	return true
}

// addFaulted inserts disk d into the sorted active set of faulted
// disks.  Plans hold at most a handful of concurrent faults, so the
// sorted insert is linear; what matters is that the techniques'
// degraded scans iterate the set in ascending disk order — the same
// order a full O(D) walk visits — touching only faulted disks.
func (e *Engine) addFaulted(d int) {
	i := 0
	for i < len(e.faultedDisks) && int(e.faultedDisks[i]) < d {
		i++
	}
	e.faultedDisks = append(e.faultedDisks, 0)
	copy(e.faultedDisks[i+1:], e.faultedDisks[i:])
	e.faultedDisks[i] = int32(d)
}

// removeFaulted deletes disk d from the faulted active set.
func (e *Engine) removeFaulted(d int) {
	for i, f := range e.faultedDisks {
		if int(f) == d {
			e.faultedDisks = append(e.faultedDisks[:i], e.faultedDisks[i+1:]...)
			return
		}
	}
}

// faultActive reports whether any disk is currently failed or slow —
// the gate on the techniques' per-interval degraded scans.
func (e *Engine) faultActive() bool { return len(e.faultedDisks) > 0 }

// endUnserved ends station s's reference to obj without a display (an
// abort or a refusal), tracing it as kind with note: the station is
// freed and rejoins the loop through the usual reissue path.
func (e *Engine) endUnserved(s int, kind EventKind, obj int, note string) {
	e.stn.Complete(s)
	e.emit(kind, obj, s, note)
	e.reissue(s)
}

// countComplete ends station s's display as a completion: it is
// counted and the station is freed.  The caller traces it (EvComplete)
// first and reissues the station after.  Any call, the tracer's
// included, would cost more than the inliner allows, and the
// completion loops call this once per display.
func (e *Engine) countComplete(s int) {
	e.win.Displays++
	e.completedTotal++
	e.stn.Complete(s)
}

// countAbort ends station s's display without counting a completion:
// the display was killed by a fault.  The station rejoins the closed
// loop through the usual reissue path.
func (e *Engine) countAbort(s, object int) {
	e.win.AbortedDisplays++
	e.abortedTotal++
	e.endUnserved(s, EvAbort, object, "")
	if e.cache != nil {
		e.detachFollowers(s, object)
	}
}

// deferReject unlinks station s's request in a queue walk and defers
// its refusal to flushRejects: a refusal reissues the station, which
// must join the queue behind the walk, not inside it.
func (e *Engine) deferReject(s int32) {
	e.rejectBuf = append(e.rejectBuf, s)
	e.queue.unlink(s)
}

// flushRejects refuses the deferred requests in queue order: each
// object's layout touches a failed disk, so the reference completes
// unserved and the station rejoins the closed loop.
func (e *Engine) flushRejects() {
	for _, s := range e.rejectBuf {
		obj := int(e.queue.node[s].obj)
		e.pinned[obj]--
		e.win.RejectedDegraded++
		e.endUnserved(int(s), EvReject, obj, "")
		if e.cache != nil && e.pinned[obj] == 0 {
			e.rejectPending(obj)
		}
	}
	e.rejectBuf = e.rejectBuf[:0]
}

// countStarved records a materialization abandoned at the Place retry
// cap.
func (e *Engine) countStarved(object int) {
	e.win.StarvedMaterializations++
	e.starvedTotal++
	e.emit(EvStarve, object, -1, "")
	e.cacheStagingAborted(object)
}

// The steppable primitives below decompose Run into the pieces a
// multi-engine driver needs (DESIGN.md §13): Prime seeds the run,
// StepOne advances exactly one interval, ResetWindow starts a
// measurement window, and Snapshot assembles a Result from the counters
// as they stand.  Run is re-expressed on top of them, so the primitives
// and the classic entry point cannot drift apart — the golden dumps pin
// both.

// Prime readies the engine to step: it seeds the closed-loop
// stations' first references.  Idempotent; StepOne calls it, so
// callers only need it explicitly when they want the setup cost paid
// at a known point.
func (e *Engine) Prime() {
	if e.primed {
		return
	}
	e.primed = true
	if !e.member {
		for s := 0; s < e.cfg.Stations; s++ {
			e.enqueue(s)
		}
	}
}

// Close is a no-op kept for callers that pair Prime with Close: the
// engine holds no goroutines or other resources to release.
func (e *Engine) Close() {}

// HasPendingWork reports whether the run's horizon (warm-up plus
// measurement) has not been reached yet.
func (e *Engine) HasPendingWork() bool {
	return e.now < e.cfg.WarmupIntervals+e.cfg.MeasureIntervals
}

// Now returns the next interval index to execute.
func (e *Engine) Now() int { return e.now }

// StepOne advances the simulation by exactly one interval.  A dead
// engine only keeps the clock: the interval passes with nothing
// served, and one inside the measurement window is counted so that
// Snapshot does not divide by it.
func (e *Engine) StepOne() {
	if e.dead {
		if e.now >= e.cfg.WarmupIntervals && e.HasPendingWork() {
			e.deadMeasured++
		}
		e.now++
		return
	}
	e.Prime()
	e.step()
}

// ResetWindow zeroes the window counters, opening a measurement
// window at the current interval.  Run calls it at the warm-up
// boundary; windowed callers (churn re-convergence tests, cluster
// drivers) may call it repeatedly to carve a run into segments.
func (e *Engine) ResetWindow() {
	e.win = Result{}
	e.busyArea, e.tertBusy = 0, 0
}

// Run executes warm-up and measurement and returns the statistics.
func (e *Engine) Run() Result {
	if e.primed || e.now != 0 {
		panic("sched: Run called twice")
	}
	e.Prime()
	for e.now < e.cfg.WarmupIntervals {
		e.step()
	}
	e.ResetWindow()
	for e.HasPendingWork() {
		e.step()
	}
	return e.Snapshot()
}

// Snapshot assembles a Result from the window counters as they stand,
// filling in the fields it derives; Hiccups counts the whole run,
// warm-up included.  The ratio fields normalize by the full
// measurement window, so a Snapshot taken mid-run (or over a shorter
// ResetWindow segment) reports exact counts but pro-rated
// utilizations.  A member that spent part of the window dead
// (Kill/Revive) normalizes by the measured intervals it did not step
// dead, so cluster merges — which weight busy ratios by
// MeasureSeconds — do not dilute a survivor's utilization with a
// corpse's zeros; with no dead span the divisor is exactly
// MeasureIntervals, byte-identical to the pinned goldens.
func (e *Engine) Snapshot() Result {
	meas := e.cfg.MeasureIntervals - e.deadMeasured
	r := e.win
	r.Technique = e.techName
	r.Stations = e.cfg.Stations
	r.DistMean = e.cfg.DistMean
	r.WarmupSeconds = float64(e.cfg.WarmupIntervals) * e.dt
	r.MeasureSeconds = float64(meas) * e.dt
	if meas > 0 {
		r.TertiaryBusy = float64(e.tertBusy) / float64(meas)
		r.DiskBusy = e.busyArea / (float64(meas) * float64(e.cfg.D))
	}
	r.UniqueResidents = e.tech.uniqueResidents()
	r.Hiccups = e.hiccups
	return r
}

// RunChecked is Run with loud failure modes: a second invocation
// returns ErrAlreadyRun instead of panicking (so cluster drivers and
// sweeps cannot crash on the double-Run footgun), and it returns a
// *StarvationError when any materialization (including during
// warm-up) was abandoned at the Place retry cap, so a sweep that
// silently delivered zero displays becomes a typed error instead of a
// zero row.  The Result is valid when the error is nil or a
// StarvationError.
func (e *Engine) RunChecked() (Result, error) {
	if e.primed || e.now != 0 {
		return Result{}, ErrAlreadyRun
	}
	res := e.Run()
	return res, e.Starvation()
}

// Starvation returns a *StarvationError when any materialization,
// warm-up included, was abandoned at the Place retry cap, and nil
// otherwise: RunChecked's check, for drivers that step the engine
// themselves.
func (e *Engine) Starvation() error {
	if e.starvedTotal == 0 {
		return nil
	}
	return &StarvationError{
		Technique: e.techName,
		K:         e.cfg.K,
		M:         e.cfg.M,
		Starved:   e.starvedTotal,
		Displays:  e.win.Displays,
		Pressure:  e.cfg.EvictionPressure,
	}
}
