package sched

import (
	"fmt"
	"slices"
	"sort"

	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/policy"
)

// clusterJob describes what a busy cluster is doing.  One byte: the
// job table is walked by the degraded scan and activeDisplays, and at
// 10k clusters a dense byte array keeps it in a few cache lines.
type clusterJob int8

const (
	jobIdle clusterJob = iota
	jobDisplay
	jobMaterialize
)

// vdrTech is the virtual data replication baseline of [GS93] as a
// Technique: D/M physical clusters, each object declustered over the
// disks of a single cluster, dynamic replication of hot objects (the
// MRT substitute of package policy), and LFU replacement at cluster
// granularity.  A cluster serves one display at a time.
//
// Per-interval work is event-driven: display endings live on an
// interval calendar (dueRing), the one staging in flight is checked
// directly, and the busy-cluster count is maintained incrementally, so
// an interval costs O(events that fire), not O(clusters + queue).
type vdrTech struct {
	eng   *Engine
	cfg   Config
	store *core.VDRStore
	repl  policy.Replication

	// Cluster state, struct-of-arrays with compact element types (the
	// interval and id spaces fit int32 by the Config validation
	// ranges), so the per-interval walks touch a quarter of the memory
	// the word-sized slices did.
	clusters  int
	job       []clusterJob
	busyUntil []int32 // interval at which the cluster frees (exclusive)
	jobObject []int32 // object the cluster is working on
	station   []int32 // station of a display job

	busyClusters int          // clusters with a non-idle job
	displayJobs  int          // clusters currently running a display
	endings      dueRing[int] // clusters whose display ends, by interval

	objScratch  []int // eviction-plan candidate scratch
	dropScratch []int // eviction-plan drop scratch
	dropBest    []int // best drop set found by victimCluster

	// Degraded-mode state, allocated only when a fault plan is set so
	// the fault-free hot path keeps its nil checks free.
	clusterBad  []int // cluster -> down disks in it
	clusterSlow []int // cluster -> slow disks in it
	jobDegraded []int // cluster -> consecutive degraded display intervals

	totalRefs int64 // references issued, for popularity shares

	// Replication stagings wait in their own low-priority queue:
	// misses (real users waiting for a cold object) always reach the
	// tertiary device first.
	replQueue  []int
	replQueued []bool

	// Tertiary state.
	matObject   int
	matStarted  bool
	matCluster  int
	matFromTman bool // current staging came from the miss queue
}

// bind allocates the VDR technique's state and warm-starts the farm.
// The stride is ignored: every object is pinned to one cluster, which
// is the k = D special case.
func (t *vdrTech) bind(e *Engine) error {
	cfg := e.cfg
	if cfg.D%cfg.M != 0 {
		return fmt.Errorf("sched: VDR needs D (%d) divisible by M (%d)", cfg.D, cfg.M)
	}
	if cfg.Degrees != nil {
		return fmt.Errorf("sched: VDR lays every object out over one %d-disk cluster; per-object degrees need the striped engine", cfg.M)
	}
	store, err := core.NewVDRStore(cfg.D, cfg.M, cfg.CapacityFragments, cfg.Objects)
	if err != nil {
		return err
	}
	repl := policy.DefaultReplication()
	t.eng = e
	t.cfg = cfg
	t.store = store
	t.repl = repl
	t.clusters = cfg.D / cfg.M
	t.endings = newDueRing[int](e.horizon)
	t.replQueued = make([]bool, cfg.Objects)
	t.matObject = -1
	t.job = make([]clusterJob, t.clusters)
	t.busyUntil = make([]int32, t.clusters)
	t.jobObject = make([]int32, t.clusters)
	t.station = make([]int32, t.clusters)
	if e.faultEvents != nil {
		t.clusterBad = make([]int, t.clusters)
		t.clusterSlow = make([]int, t.clusters)
		t.jobDegraded = make([]int, t.clusters)
	}
	for c := range t.jobObject {
		t.jobObject[c] = -1
	}
	// Warm-start the farm at the replication policy's steady state:
	// replicas proportional to popularity (building a replica set
	// through the 40 mbps tertiary takes days of simulated time, so
	// starting cold would measure the transient, not the policy).
	// Objects are loaded in popularity order, each up to its target
	// replica count, but always preferring a first copy of the next
	// object over a surplus copy of a hotter one once targets allow.
	concurrency := cfg.Stations
	preload := cfg.PreloadTop
	if preload == 0 {
		preload = cfg.Objects
	}
	// Candidate replicas in decreasing marginal value p(id)/copy#,
	// capped at each object's target; placing greedily by marginal
	// value yields the allocation a minimum-response-time policy
	// converges to.
	type cand struct {
		id    int
		copy  int
		value float64
	}
	var cands []cand
	addCand := func(id int) {
		p := e.dist.P(id)
		want := repl.Target(p, concurrency)
		for j := 1; j <= want; j++ {
			cands = append(cands, cand{id: id, copy: j, value: p / float64(j)})
		}
	}
	if e.member {
		// Cluster-assigned shard of the catalog: warm-start only the
		// objects this server replicates.
		for _, id := range e.preload {
			addCand(id)
		}
	} else {
		for id := 0; id < preload && id < cfg.Objects; id++ {
			addCand(id)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].value != cands[j].value {
			return cands[i].value > cands[j].value
		}
		if cands[i].id != cands[j].id {
			return cands[i].id < cands[j].id
		}
		return cands[i].copy < cands[j].copy
	})
	for _, cd := range cands {
		c, ok := store.FindFreeCluster(cd.id, cfg.Subobjects)
		if !ok {
			continue
		}
		if err := store.PlaceReplica(cd.id, c, cfg.Subobjects); err != nil {
			return fmt.Errorf("sched: VDR preload failed: %w", err)
		}
	}
	return nil
}

func (t *vdrTech) name() string { return VDRName }

func (t *vdrTech) onEnqueue(int32) { t.totalRefs++ }

// interval runs one interval of VDR policy: cluster job endings,
// tertiary progress, then the admission scan; it returns the busy
// disk count (busy clusters × M) for the utilization integral.
func (t *vdrTech) interval() int {
	if t.eng.faultActive() {
		t.degradedScan()
	}
	t.finishDue()
	t.stepTertiary()
	t.admit()
	return t.busyClusters * t.cfg.M
}

// activeDisplays returns the display-job count, maintained
// incrementally by setJob/clearJob instead of walking all clusters.
func (t *vdrTech) activeDisplays() int { return t.displayJobs }

// onFault maintains the per-cluster fault tallies.  A repaired
// cluster's degraded streak resets; a tertiary outage abandons the
// staging in flight.
func (t *vdrTech) onFault(ev fault.Event) {
	switch ev.Kind {
	case fault.DiskFail:
		t.clusterBad[ev.Disk/t.cfg.M]++
	case fault.DiskRepair:
		c := ev.Disk / t.cfg.M
		t.clusterBad[c]--
		if t.clusterBad[c] == 0 {
			t.jobDegraded[c] = 0
		}
	case fault.SlowStart:
		t.clusterSlow[ev.Disk/t.cfg.M]++
	case fault.SlowEnd:
		t.clusterSlow[ev.Disk/t.cfg.M]--
	case fault.TertiaryFail:
		if t.matObject >= 0 {
			t.abortStaging()
		}
	}
}

// degradedScan visits each faulted cluster once per interval while any
// fault is active: a display on a cluster with a down disk rides out
// up to the hiccup limit of consecutive degraded intervals before
// aborting (a slow disk only inflates the degraded-hiccup count); a
// materialization touching a down disk is abandoned immediately — its
// product would be unreadable anyway.  The scan maps the engine's
// sorted faulted-disk active set to clusters: a cluster's disks
// [c·M, (c+1)·M) are contiguous, so duplicates are consecutive and the
// visit order is ascending cluster — the same order the old
// all-clusters walk used — at O(faulted disks), not O(clusters).
func (t *vdrTech) degradedScan() {
	e := t.eng
	lastC := -1
	for _, f := range e.faultedDisks {
		c := int(f) / t.cfg.M
		if c == lastC {
			continue
		}
		lastC = c
		bad, slow := t.clusterBad[c] > 0, t.clusterSlow[c] > 0
		if !bad && !slow || t.job[c] == jobIdle {
			continue
		}
		switch t.job[c] {
		case jobDisplay:
			e.degHiccups++
			if bad {
				t.jobDegraded[c]++
				if t.jobDegraded[c] > faultHiccupLimit {
					t.abortDisplay(c)
				}
			}
		case jobMaterialize:
			if bad {
				t.abortStaging()
			}
		}
	}
}

// abortDisplay kills the display on cluster c; its calendar entry goes
// stale (finishDue revalidates against jobIdle).
func (t *vdrTech) abortDisplay(c int) {
	station, object := int(t.station[c]), int(t.jobObject[c])
	t.clearJob(c)
	t.eng.countAbort(station, object)
}

// abortStaging abandons the pending or in-flight materialization; a
// miss staging returns its device slot so stations re-request the
// object, a replication staging is simply dropped (the replication
// trigger re-fires if still warranted).
func (t *vdrTech) abortStaging() {
	if t.matFromTman {
		// A miss staging has batched followers waiting on the queued
		// leader request; detach them before the object is dropped.
		t.eng.cacheStagingAborted(t.matObject)
	}
	if t.matStarted {
		t.clearJob(t.matCluster)
	}
	if t.matFromTman {
		t.eng.tman.Abort()
	}
	t.matObject = -1
	t.matStarted = false
}

// killActive implements the whole-server kill (DESIGN.md §14): the
// staging aborts first (a miss staging re-queues its batched
// followers, and the engine drains the queue right after), then every
// busy cluster's job aborts through the same typed paths the disk
// faults use.  The replication queue is dropped outright — the trigger re-fires after restart if still
// warranted.
func (t *vdrTech) killActive() {
	if t.matObject >= 0 {
		t.abortStaging()
	}
	for c := 0; c < t.clusters; c++ {
		switch t.job[c] {
		case jobDisplay:
			t.abortDisplay(c)
		case jobMaterialize:
			t.clearJob(c) // defensive: abortStaging above cleared it
		}
	}
	t.replQueue = t.replQueue[:0]
	clear(t.replQueued)
}

// adoptObject places one replica of id for the replica-healing pass
// without consuming tertiary time — the cluster layer's per-window
// budget is the bandwidth model.  victimCluster already refuses
// clusters holding id, so healing an object this server still has a
// copy of grows its replica set, which is the point.
func (t *vdrTech) adoptObject(id int) bool {
	if id == t.matObject || t.eng.tman.Pending(id) || t.replQueued[id] {
		return false
	}
	c, drop, ok := t.victimCluster(id)
	if !ok {
		return false
	}
	if !t.executePlan(c, drop) {
		return false
	}
	if err := t.store.PlaceReplica(id, c, t.cfg.Subobjects); err != nil {
		t.eng.hiccups++
		return false
	}
	t.eng.syncHeld(id)
	t.eng.replications++
	t.eng.emit(EvMatEnd, id, -1, "healed")
	return true
}

// anyLiveReplica reports whether some replica of id sits on a cluster
// with no down disk.
func (t *vdrTech) anyLiveReplica(id int) bool {
	for _, c := range t.store.Replicas(id) {
		if t.clusterBad[c] == 0 {
			return true
		}
	}
	return false
}

func (t *vdrTech) uniqueResidents() int { return t.store.UniqueResident() }

func (t *vdrTech) holdsObject(id int) bool { return len(t.store.Replicas(id)) > 0 }

// setJob starts a job on cluster c until the given interval,
// maintaining the busy and display counts.
func (t *vdrTech) setJob(c int, job clusterJob, object, until int) {
	t.job[c] = job
	t.jobObject[c] = int32(object)
	t.busyUntil[c] = int32(until)
	t.busyClusters++
	if t.jobDegraded != nil {
		t.jobDegraded[c] = 0
	}
	if job == jobDisplay {
		t.displayJobs++
	}
}

// clearJob returns cluster c to idle.
func (t *vdrTech) clearJob(c int) {
	if t.job[c] == jobDisplay {
		t.displayJobs--
	}
	t.job[c] = jobIdle
	t.jobObject[c] = -1
	t.busyClusters--
}

// finishDue completes the cluster jobs ending now — a calendar drain,
// not a scan of all clusters.  Clusters are processed in ascending
// index order, matching a full scan.
func (t *vdrTech) finishDue() {
	e := t.eng
	ending := t.endings.due(e.now)
	// A staging can outlast the calendar's horizon many times over
	// (7,500 intervals for Table 3), so it is not on the calendar: its
	// cluster joins this interval's endings when its time is up.
	if t.matStarted && int(t.busyUntil[t.matCluster]) == e.now {
		ending = append(ending, t.matCluster)
	}
	if len(ending) == 0 {
		return
	}
	sort.Ints(ending)
	reissue := e.reissueBuf[:0]
	for _, c := range ending {
		// Revalidate against the cluster's live state: an entry is stale
		// when a fault or a Kill aborted the job or a new job was set
		// with a later deadline, and a cluster aborted and re-occupied
		// can appear twice in one interval (the first visit clears the
		// job, the second skips on idle).
		if t.job[c] == jobIdle || e.now < int(t.busyUntil[c]) {
			continue
		}
		switch t.job[c] {
		case jobDisplay:
			e.completed++
			e.completedTotal++
			e.emit(EvComplete, int(t.jobObject[c]), int(t.station[c]), "")
			e.stn.Complete(int(t.station[c]))
			reissue = append(reissue, int(t.station[c]))
		case jobMaterialize:
			e.emit(EvMatEnd, t.matObject, -1, "")
			wasResident := t.store.Resident(t.matObject)
			if err := t.store.PlaceReplica(t.matObject, c, t.cfg.Subobjects); err != nil {
				e.hiccups++
			} else if wasResident {
				e.replications++
			}
			e.syncHeld(t.matObject)
			if t.matFromTman {
				if _, err := e.tman.Finish(); err != nil {
					e.hiccups++
				}
			}
			e.materialized++
			t.matObject = -1
			t.matStarted = false
		}
		t.clearJob(c)
	}
	for _, s := range reissue {
		e.reissue(s)
	}
	e.reissueBuf = reissue[:0]
}

// stepTertiary stages non-resident objects through the tertiary
// device into an evicted cluster.
func (t *vdrTech) stepTertiary() {
	e := t.eng
	if t.matStarted {
		e.tertBusy++
		return // completion handled by finishDue
	}
	if e.tertDown {
		return // device offline: no new staging starts
	}
	if t.matObject < 0 {
		if id, ok := e.tman.StartNext(); ok {
			t.matObject = id
			t.matFromTman = true
		} else if len(t.replQueue) > 0 {
			id := t.replQueue[0]
			t.replQueue = t.replQueue[1:]
			t.replQueued[id] = false
			t.matObject = id
			t.matFromTman = false
		} else {
			return
		}
	}
	c, drop, ok := t.victimCluster(t.matObject)
	if !ok {
		return // no evictable idle cluster; retry next interval
	}
	if !t.executePlan(c, drop) {
		return
	}
	t.setJob(c, jobMaterialize, t.matObject, e.now+t.cfg.MaterializeIntervals())
	t.matStarted = true
	t.matCluster = c
	if e.tracer != nil {
		kind := "miss"
		if !t.matFromTman {
			kind = "replica"
		}
		e.emit(EvMatStart, t.matObject, -1, fmt.Sprintf("%s cluster=%d", kind, c))
	}
	e.tertBusy++
}

// replicaEvictable reports whether the replica of id on an idle
// cluster may be dropped: it is not the last copy of an object that
// queued displays are waiting for.
func (t *vdrTech) replicaEvictable(id int) bool {
	return len(t.store.Replicas(id)) > 1 || t.eng.pinned[id] == 0
}

// marginalValue estimates the cost of losing one replica of id: its
// access frequency divided by its replica count (including a copy in
// flight).  Losing one of many replicas of a hot object costs less
// than losing the only replica of a lukewarm one.
func (t *vdrTech) marginalValue(id int) float64 {
	reps := len(t.store.Replicas(id)) + t.copiesInFlight(id)
	if reps < 1 {
		reps = 1
	}
	return float64(t.eng.lfu.Count(id)) / float64(reps)
}

// evictionPlan computes the cheapest set of replicas to drop from
// cluster c so that `need` cylinders become free: evictable replicas
// in increasing marginal-value order, stopping as soon as enough
// space exists.  loss is the largest marginal value dropped.  The
// drop set is appended to buf (sliced to zero length first).
func (t *vdrTech) evictionPlan(c, need, forObject int, buf []int) (drop []int, loss float64, ok bool) {
	if t.job[c] != jobIdle {
		return nil, 0, false
	}
	if t.clusterBad != nil && t.clusterBad[c] > 0 {
		return nil, 0, false // never stage or copy into a broken cluster
	}
	if forObject >= 0 && t.store.HasReplicaOn(forObject, c) {
		return nil, 0, false // a replica of the object must not overwrite itself
	}
	free := t.store.ClusterFree(c)
	if free >= need {
		return nil, 0, true
	}
	// ObjectsOn is kept sorted by id; copy into scratch so the
	// marginal-value sort below cannot disturb the store's index.
	// The comparator is a strict total order (ids are unique), so any
	// sorting algorithm yields the same permutation.
	objs := append(t.objScratch[:0], t.store.ObjectsOn(c)...)
	t.objScratch = objs[:0]
	slices.SortFunc(objs, func(a, b int) int {
		va, vb := t.marginalValue(a), t.marginalValue(b)
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		// Equal marginal value (typically both zero): evict the
		// youngest id first, protecting not-yet-referenced residents.
		case a > b:
			return -1
		default:
			return 1
		}
	})
	drop = buf[:0]
	for _, id := range objs {
		if !t.replicaEvictable(id) {
			continue
		}
		drop = append(drop, id)
		free += t.cfg.Subobjects
		if v := t.marginalValue(id); v > loss {
			loss = v
		}
		if free >= need {
			return drop, loss, true
		}
	}
	return nil, 0, false
}

// victimCluster picks the cheapest cluster (least marginal value
// lost) that can hold a new replica of size Subobjects, returning its
// eviction plan.  The returned drop slice is valid until the next
// victimCluster call.
func (t *vdrTech) victimCluster(forObject int) (cluster int, drop []int, ok bool) {
	best := -1
	var bestDrop []int
	bestLoss := 0.0
	cur := t.dropScratch
	spare := t.dropBest
	for c := 0; c < t.clusters; c++ {
		d, l, planOK := t.evictionPlan(c, t.cfg.Subobjects, forObject, cur)
		if !planOK {
			continue
		}
		if best < 0 || l < bestLoss {
			best, bestLoss = c, l
			if d != nil {
				// Keep d's backing out of the scratch rotation until a
				// better plan replaces it.
				cur, spare = spare, cur
			}
			bestDrop = d
		}
	}
	t.dropScratch, t.dropBest = cur, spare
	if best < 0 {
		return 0, nil, false
	}
	return best, bestDrop, true
}

// executePlan evicts the planned replicas from cluster c.
func (t *vdrTech) executePlan(c int, drop []int) bool {
	e := t.eng
	for _, id := range drop {
		if err := t.store.EvictReplica(id, c, t.cfg.Subobjects); err != nil {
			e.hiccups++
			return false
		}
		e.syncHeld(id)
		if e.tracer != nil {
			e.emit(EvEvict, id, -1, fmt.Sprintf("cluster=%d", c))
		}
	}
	return true
}

// admit scans the queue in arrival order: requests for resident
// objects start on an idle replica cluster; hot contended objects
// trigger replication; non-resident objects go to the tertiary
// manager.
func (t *vdrTech) admit() {
	e := t.eng
	q := &e.queue
	for s, next := q.head, int32(0); s >= 0; s = next {
		next = q.node[s].next
		obj := int(q.node[s].obj)
		if !t.store.Resident(obj) {
			if t.matObject != obj {
				e.tman.Request(obj)
			}
			continue
		}
		if e.downCount > 0 && !t.anyLiveReplica(obj) {
			// Every replica sits behind a down disk: refuse rather than
			// queue forever.
			e.deferReject(s)
			continue
		}
		t.maybeReplicate(obj)
		if c, ok := t.idleReplica(obj); ok {
			t.startDisplay(s, c)
			q.unlink(s)
		}
	}
	e.flushRejects()
}

// idleReplica returns the lowest-indexed idle cluster holding a
// replica of id (the store keeps replica lists sorted).  Clusters
// with a down disk never start new displays.
func (t *vdrTech) idleReplica(id int) (int, bool) {
	for _, c := range t.store.Replicas(id) {
		if t.job[c] != jobIdle {
			continue
		}
		if t.clusterBad != nil && t.clusterBad[c] > 0 {
			continue
		}
		return c, true
	}
	return 0, false
}

// copiesInFlight returns 1 while a replica of the resident object id
// is being created — a pending, queued, or in-flight tertiary staging
// — and 0 otherwise.
func (t *vdrTech) copiesInFlight(id int) int {
	if t.store.Resident(id) && (t.eng.tman.Pending(id) || t.replQueued[id] || t.matObject == id) {
		return 1
	}
	return 0
}

// startDisplay occupies cluster c for one display of station s's
// queued request.
func (t *vdrTech) startDisplay(s int32, c int) {
	e := t.eng
	obj := int(e.queue.node[s].obj)
	until := e.now + t.cfg.Subobjects
	t.setJob(c, jobDisplay, obj, until)
	t.endings.add(e.now, until, c)
	t.station[c] = s
	e.pinned[obj]--
	e.noteAdmit(s, 0)
	if e.tracer != nil {
		e.emit(EvAdmit, obj, int(s), fmt.Sprintf("cluster=%d", c))
	}
}

// maybeReplicate queues an additional replica of a contended object
// when the policy's benefit test passes.  In the faithful [GS93]
// architecture the replica is staged through the tertiary device
// behind all miss materializations, and the victim cluster is chosen
// when the staging starts.  The device itself is the brake on
// replication volume, which is precisely why replication cannot keep
// up under heavy load.
func (t *vdrTech) maybeReplicate(obj int) {
	e := t.eng
	if e.tman.Pending(obj) || t.replQueued[obj] || t.matObject == obj {
		return
	}
	// Nothing is in flight for obj past the guard above, so the
	// resident replicas are the whole count.
	replicas := len(t.store.Replicas(obj))
	share := 0.0
	if t.totalRefs > 0 {
		share = float64(e.lfu.Count(obj)) / float64(t.totalRefs)
	}
	target := t.repl.Target(share, t.cfg.Stations)
	if t.repl.ShouldReplicate(int(e.pinned[obj]), replicas, target) {
		t.replQueued[obj] = true
		t.replQueue = append(t.replQueue, obj)
	}
}
