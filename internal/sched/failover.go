package sched

import "fmt"

// This file is the engine's server-failover surface (DESIGN.md §14):
// Kill drains a whole member — in-flight displays become typed aborts,
// queued and batched requests are orphaned for the cluster to re-admit
// on survivors — and Revive rejoins it with cold RAM but warm disks,
// jumping the engine's clocks across the dead window.  Only the
// cluster driver calls these; a single-server run never does, and all
// failover state then stays zero (the pinned goldens cover that).

// KillReport summarizes what a Kill drained.
type KillReport struct {
	// Aborted counts the displays (leaders and batched followers) that
	// were killed mid-delivery.  Their viewers are lost — the cluster
	// counts them as orphaned aborts, not re-admissions.
	Aborted int
	// Orphans lists the object of every request that was admitted but
	// not yet in delivery — disk-queue entries and batched pending
	// followers — in drain order.  These viewers never started watching,
	// so the cluster re-dispatches each to a surviving member.
	Orphans []int
}

// Kill takes the member down at its current interval: every in-flight
// display aborts through the fault path, the request queue and the
// batch registries drain into the report's orphan list, the tertiary
// device drops its work, and the engine stops reporting pending work
// until Revive.  Requires a live, open-workload engine (a cluster
// member or ArrivalsPerHour > 0): in the closed loop an aborted station
// reissues immediately and the drain below could never terminate.  A
// dead engine returns ErrKillDead, a closed-loop one ErrKillClosedLoop,
// and neither is changed.
func (e *Engine) Kill() (KillReport, error) {
	if e.dead {
		return KillReport{}, ErrKillDead
	}
	if e.open == nil {
		return KillReport{}, ErrKillClosedLoop
	}
	var rep KillReport
	before := e.abortedTotal
	// Displays first: the staging abort inside killActive re-queues its
	// batched followers, and the queue drain below must see them.
	e.tech.killActive()
	// Followers whose leader already completed (or was superseded) have
	// no leader abort to detach them — end them directly.
	for st := range e.followerActive {
		if !e.followerActive[st] {
			continue
		}
		e.followerGen[st]++ // stales the ring entry
		e.followerActive[st] = false
		e.activeFollowers--
		e.aborted++
		e.abortedTotal++
		e.stn.Complete(st)
		e.emit(EvAbort, int(e.followerObj[st]), st, "follower")
		e.reissue(st)
	}
	rep.Aborted = e.abortedTotal - before
	e.orphaned += rep.Aborted
	// Queued requests never started: their stations free up here and
	// their objects go to the cluster for re-admission, FIFO.
	for _, r := range e.queue {
		e.pinned[r.object]--
		e.stn.Complete(r.station)
		e.emit(EvReject, r.object, r.station, "orphaned")
		e.reissue(r.station)
		rep.Orphans = append(rep.Orphans, r.object)
	}
	e.queue = e.queue[:0]
	// Batched pending requests waiting on a queued leader drain the
	// same way, ascending object order.
	if e.cache != nil {
		for _, obj := range e.cache.PendingObjects(nil) {
			e.pendingBuf = e.cache.TakePending(obj, e.pendingBuf[:0])
			for _, p := range e.pendingBuf {
				e.pendingFollowers--
				e.stn.Complete(int(p.Station))
				e.emit(EvReject, obj, int(p.Station), "orphaned")
				e.reissue(int(p.Station))
				rep.Orphans = append(rep.Orphans, obj)
			}
		}
	}
	e.tman.Reset()
	e.dead, e.diedAt = true, e.now
	return rep, nil
}

// Revive restarts the member at interval `at` (the cluster's current
// interval, at or after the kill): the clock jumps across the dead
// window and the RAM tier flushes cold.  The calendars are left as
// they are: Kill ended every display, follower and staging, and each
// consumer rejects such stale entries when their slot drains.  Disk
// contents survive — the transient-fault model disk repairs use — so
// the member serves its pre-kill catalog, just with a cold cache and
// empty queues.  A live engine returns ErrReviveLive, and an `at`
// before the kill interval ErrReviveEarly; neither changes the engine.
func (e *Engine) Revive(at int) error {
	if !e.dead {
		return ErrReviveLive
	}
	if at < e.now {
		return fmt.Errorf("%w: at %d, killed at %d", ErrReviveEarly, at, e.now)
	}
	e.deadMeasured += e.deadSpan(e.diedAt, at)
	e.now = at
	if e.cache != nil {
		e.cache.Flush()
	}
	e.dead = false
	return nil
}

// deadSpan returns how many measured intervals the window [from, to)
// covers — the portion of a dead span that Snapshot's utilization
// normalization must not divide by.
func (e *Engine) deadSpan(from, to int) int {
	lo := e.cfg.WarmupIntervals
	hi := lo + e.cfg.MeasureIntervals
	if from < lo {
		from = lo
	}
	if to > hi {
		to = hi
	}
	if to <= from {
		return 0
	}
	return to - from
}

// Dead reports whether the member is currently killed.
func (e *Engine) Dead() bool { return e.dead }

// CompletedDisplays returns the lifetime completed-display count
// (warm-up included) — the cluster's recovery-curve sample.
func (e *Engine) CompletedDisplays() int { return e.completedTotal }

// AdoptObject places a full copy of the object on this member as part
// of the cluster's replica-healing pass (no tertiary time is consumed;
// the healing budget is the bandwidth model).  It reports whether a
// copy was actually placed.
func (e *Engine) AdoptObject(id int) bool {
	if e.dead || id < 0 || id >= e.cfg.Objects {
		return false
	}
	return e.tech.adoptObject(id)
}
