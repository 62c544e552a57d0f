package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/rng"
)

// TestDueRingMatchesMapBuckets drives the ring and interval-keyed map
// buckets with identical random traffic inside the horizon and
// requires identical drain contents and order at every interval.
func TestDueRingMatchesMapBuckets(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		horizon := 2 + rng.Intn(200)
		r := newDueRing[int](horizon)
		oracle := map[int][]int{}
		id := 0
		for now := 0; now < 20*horizon; now++ {
			got := r.due(now)
			want := oracle[now]
			delete(oracle, now)
			if !reflect.DeepEqual(append([]int{}, got...), append([]int{}, want...)) {
				t.Fatalf("trial %d (horizon %d) interval %d: ring drained %v, map %v", trial, horizon, now, got, want)
			}
			for n := rng.Intn(5); n > 0; n-- {
				delay := 1 + rng.Intn(horizon-1)
				switch rng.Intn(3) {
				case 0:
					delay = 1
				case 1:
					delay = horizon - 1
				}
				r.add(now, now+delay, id)
				oracle[now+delay] = append(oracle[now+delay], id)
				id++
			}
		}
	}
}

// TestDueRingPanicsOutsideHorizon pins the bound add enforces: an event
// at or before the current interval, or horizon or more intervals
// ahead, would share a slot with a live interval.
func TestDueRingPanicsOutsideHorizon(t *testing.T) {
	const horizon = 8
	for _, at := range []int{99, 100, 100 + horizon, 100 + 3*horizon} {
		r := newDueRing[int](horizon)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("add(100, %d) with horizon %d did not panic", at, horizon)
				}
			}()
			r.add(100, at, 0)
		}()
	}
	r := newDueRing[int](horizon)
	r.add(100, 101, 1)
	r.add(100, 100+horizon-1, 2)
	if got := r.due(101); len(got) != 1 || got[0] != 1 {
		t.Errorf("due(101) = %v, want [1]", got)
	}
}

// TestDueRingSteadyStateAllocs pins the zero-alloc calendar the engines
// rely on: once every slot's backing has grown, bounded-delay traffic
// allocates nothing per interval.
func TestDueRingSteadyStateAllocs(t *testing.T) {
	const horizon = 61
	r := newDueRing[int](horizon)
	now := 0
	step := func() {
		r.due(now)
		r.add(now, now+1+now%(horizon-1), now)
		r.add(now, now+horizon-1, now)
		now++
	}
	for now < 4*horizon {
		step()
	}
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Errorf("steady-state interval allocates %v/op, want 0", got)
	}
}

// checkLedger is the per-interval display conservation check: every
// admitted display (leader or batched follower) has completed, aborted
// or is still in delivery.  A calendar that drops an event leaves a
// display active forever, one that fires an event twice completes it
// twice; either breaks the ledger at the interval it happens.
func checkLedger(t testing.TB, e *Engine) {
	t.Helper()
	active := e.tech.activeDisplays()
	if e.admittedTotal != e.completedTotal+e.abortedTotal+active+e.activeFollowers {
		t.Fatalf("interval %d: display ledger broken: admitted %d != completed %d + aborted %d + active %d + followers %d",
			e.now-1, e.admittedTotal, e.completedTotal, e.abortedTotal, active, e.activeFollowers)
	}
}

// checkQueue is the per-interval check of the request queue's list:
// the links are symmetric and end at the head and the tail, a walk from
// the head meets QueuedRequests() stations, none twice and each with a
// request outstanding, and under striping the sequence numbers rise
// along it, the order the indexed probe sorts its candidates by.
func checkQueue(t testing.TB, e *Engine) {
	t.Helper()
	at, q := e.now-1, &e.queue
	st, _ := e.tech.(*stripedTech)
	seen := make([]bool, len(q.node))
	n, prev := 0, int32(-1)
	for s := q.head; s >= 0; s = q.node[s].next {
		if seen[s] {
			t.Fatalf("interval %d: station %d is queued twice", at, s)
		}
		seen[s] = true
		n++
		if q.node[s].prev != prev {
			t.Fatalf("interval %d: station %d follows %d in the queue but links back to %d", at, s, prev, q.node[s].prev)
		}
		if !e.stn.Busy(int(s)) {
			t.Fatalf("interval %d: queued station %d has no request outstanding", at, s)
		}
		if st != nil && prev >= 0 && st.idx.seq[s] <= st.idx.seq[prev] {
			t.Fatalf("interval %d: sequence numbers do not rise along the queue at station %d", at, s)
		}
		prev = s
	}
	if q.tail != prev {
		t.Fatalf("interval %d: the queue ends at station %d but its tail is %d", at, prev, q.tail)
	}
	if n != e.QueuedRequests() {
		t.Fatalf("interval %d: a walk of the queue meets %d stations, QueuedRequests reports %d", at, n, e.QueuedRequests())
	}
}

// checkBounds is the per-interval check of a run's hard limits: no
// hiccup so far, and the memory tier's pinned prefixes within its
// budget.
func checkBounds(t testing.TB, e *Engine) {
	t.Helper()
	if e.hiccups != 0 {
		t.Fatalf("interval %d: %d hiccups", e.now-1, e.hiccups)
	}
	if e.cache != nil && e.cache.Used() > e.cfg.Cache.BudgetBytes {
		t.Fatalf("interval %d: the cache holds %d bytes, over its budget of %d", e.now-1, e.cache.Used(), e.cfg.Cache.BudgetBytes)
	}
}

// checkInFlight recounts the technique's in-flight work after an
// interval.  Nothing may be overdue: a display, stream or cluster job
// whose calendar entry was dropped would still be in flight past its
// end.  The incremental counts must match the recount: a stale entry
// acted on twice (a job cleared when already idle, say) skews them.
func checkInFlight(t testing.TB, e *Engine) {
	t.Helper()
	at := e.now - 1
	switch tech := e.tech.(type) {
	case *stripedTech:
		n := tech.cfg.Subobjects
		active, busy := 0, 0
		for d, done := range tech.dDone {
			if done {
				continue
			}
			active++
			tau0, tmax := int(tech.dTau0[d]), int(tech.dTmax[d])
			if tau0+tmax+n <= at {
				t.Fatalf("interval %d: display %d admitted at %d (tmax %d) is still in delivery", at, d, tau0, tmax)
			}
			for i := d * tech.stride; i < d*tech.stride+int(tech.dM[d]); i++ {
				if tech.sVdisk[i] >= 0 && tau0+int(tech.sT[i])+n <= at {
					t.Fatalf("interval %d: stream %d of display %d admitted at %d still holds its disk", at, i-d*tech.stride, d, tau0)
				}
			}
		}
		for _, owner := range tech.vbusy {
			if owner != freeSlot {
				busy++
			}
		}
		if active != tech.active || busy != tech.busy {
			t.Fatalf("interval %d: %d displays and %d busy disks in flight, counted %d and %d", at, active, busy, tech.active, tech.busy)
		}
	case *vdrTech:
		busy, displays := 0, 0
		for c, job := range tech.job {
			if job == jobIdle {
				continue
			}
			busy++
			if job == jobDisplay {
				displays++
			}
			if int(tech.busyUntil[c]) <= at {
				t.Fatalf("interval %d: cluster %d is still busy past its end %d", at, c, tech.busyUntil[c])
			}
		}
		if busy != tech.busyClusters || displays != tech.displayJobs {
			t.Fatalf("interval %d: %d busy clusters and %d displays, counted %d and %d", at, busy, displays, tech.busyClusters, tech.displayJobs)
		}
	}
}

// ringEntries counts the payloads waiting on a ring, stale ones
// included.
func ringEntries[P any](r *dueRing[P]) int {
	n := 0
	for _, s := range r.slots {
		n += len(s)
	}
	return n
}

// calendarEntries counts what waits on every calendar of the engine.
func calendarEntries(e *Engine) int {
	n := ringEntries(&e.followers)
	switch tech := e.tech.(type) {
	case *stripedTech:
		n += ringEntries(&tech.releases) + ringEntries(&tech.completions)
	case *vdrTech:
		n += ringEntries(&tech.endings)
	}
	return n
}

// killReviveRun is what one kill/revive calendar run produced.
type killReviveRun struct {
	res     Result
	orphans [][]int
	events  []Event
}

// runKillRevive drives a cache-and-batching member of the technique
// with injected traffic skewed to the preloaded objects, and kills it
// four times: each time once displays, batched followers and (for VDR)
// a staging are in flight.  Every other revive comes back within one
// horizon, so the pre-kill calendar entries still sit in live slots
// and fire at their original intervals; the others come back after
// more than one horizon, so the ring wraps over them.  A burst of
// arrivals right after each revive re-occupies the stations and
// clusters the stale entries name.  The ledger, the in-flight recount
// and zero hiccups are checked after every interval, and no display
// may end early — what a stale entry taken for a live one would do: a
// traced completion (striped leaders, followers) comes at least one
// display length after its admission, and a VDR cluster job leaves its
// cluster only at its end interval or at a Kill.
func runKillRevive(t *testing.T, key string) killReviveRun {
	t.Helper()
	cfg := smallConfig(32, 10)
	cfg.WarmupIntervals, cfg.MeasureIntervals = 0, 2000
	cfg.Cache = &cache.Spec{BudgetBytes: 1 << 30, BatchWindow: 8}
	cfg.CapacityFragments = 90 // room to stage on demand at k = 1
	cfg.EvictionPressure = true
	ti, _ := TechniqueByKey(key)
	stride := 0
	if key == "staggered" {
		stride = 1
	}
	norm, err := ti.Configure(cfg, stride)
	if err != nil {
		t.Fatal(err)
	}
	// A third of the catalog on disk: the rest is staged on demand.
	preload := make([]int, 0, cfg.Objects/3)
	for id := 0; id < cfg.Objects/3; id++ {
		preload = append(preload, id)
	}
	e, err := newMember(ti, norm, preload)
	if err != nil {
		t.Fatal(err)
	}
	var run killReviveRun
	admittedAt := map[int]int{} // station -> interval of its display's admission
	e.SetTracer(func(ev Event) {
		run.events = append(run.events, ev)
		switch ev.Kind {
		case EvAdmit:
			admittedAt[ev.Station] = ev.Interval
		case EvComplete:
			if a := admittedAt[ev.Station]; ev.Interval-a < cfg.Subobjects {
				t.Fatalf("%s interval %d: station %d completed a display admitted at %d", key, ev.Interval, ev.Station, a)
			}
		}
	})
	vdr, _ := e.tech.(*vdrTech)
	var jobEnds []int32 // VDR: cluster -> end of its job at the last check, -1 idle
	if vdr != nil {
		jobEnds = make([]int32, vdr.clusters)
		for c := range jobEnds {
			jobEnds[c] = -1
		}
	}
	e.stepCheck = func() {
		checkLedger(t, e)
		checkInFlight(t, e)
		checkBounds(t, e)
		checkQueue(t, e)
		checkStriped(t, e)
		for c, end := range jobEnds {
			if end >= 0 && int(end) != e.now-1 && (vdr.job[c] == jobIdle || vdr.busyUntil[c] != end) {
				t.Fatalf("vdr interval %d: the job on cluster %d ended before its end %d", e.now-1, c, end)
			}
			jobEnds[c] = -1
			if vdr.job[c] != jobIdle {
				jobEnds[c] = vdr.busyUntil[c]
			}
		}
	}
	arrivals := rng.NewSource(7).Stream("kill-revive")
	end := cfg.WarmupIntervals + cfg.MeasureIntervals
	short, long := e.horizon/3, 2*e.horizon+5
	gaps := []int{short, long, short, long}
	kills := len(gaps)
	revivedAt := -1
	e.Prime()
	for e.now < end {
		staging := vdr == nil || vdr.matStarted
		if len(gaps) > 0 && e.now >= 200 && e.tech.activeDisplays() > 0 && e.activeFollowers > 0 && staging {
			rep, err := e.Kill()
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			run.orphans = append(run.orphans, rep.Orphans)
			for c := range jobEnds {
				jobEnds[c] = -1
			}
			if calendarEntries(e) == 0 {
				t.Fatalf("%s: nothing on the calendars at the kill; the revive proves nothing", key)
			}
			for i := 0; i < gaps[0]; i++ {
				e.StepOne()
			}
			if err := e.Revive(); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			gaps = gaps[1:]
			revivedAt = e.now
			checkLedger(t, e)
			continue
		}
		n := arrivals.Intn(3)
		if revivedAt >= 0 && e.now-revivedAt < 3 {
			n += 4
		}
		for ; n > 0; n-- {
			e.InjectArrival(arrivals.Intn(1 + arrivals.Intn(cfg.Objects)))
		}
		e.StepOne()
	}
	if len(gaps) > 0 {
		t.Fatalf("%s: only %d of %d kills found displays, followers and a staging in flight", key, kills-len(gaps), kills)
	}
	run.res = e.Snapshot()
	if run.res.Displays == 0 || run.res.BatchedFollowers == 0 {
		t.Fatalf("%s: weak run: %d displays, %d batched followers", key, run.res.Displays, run.res.BatchedFollowers)
	}
	return run
}

// TestKillReviveCalendars pins that Revive needs no calendar reset:
// whether a revived member's pre-kill entries still sit in live slots
// or the ring has wrapped over them, every consumer rejects them, so
// the display ledger balances after every interval, no hiccup occurs,
// the striped techniques' claims and waiter lists hold (checkStriped),
// and the run is deterministic.
func TestKillReviveCalendars(t *testing.T) {
	for _, key := range []string{"striped", "staggered", "vdr"} {
		t.Run(key, func(t *testing.T) {
			a, b := runKillRevive(t, key), runKillRevive(t, key)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different runs:\n  first:  %+v\n  second: %+v", a.res, b.res)
			}
		})
	}
}
