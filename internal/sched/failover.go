package sched

// This file is the engine's server-failover surface (DESIGN.md §14):
// Kill drains a whole member — in-flight displays become typed aborts,
// queued and batched requests are orphaned for the cluster to re-admit
// on survivors — and Revive rejoins it with cold RAM but warm disks.
// A dead member keeps stepping on the cluster's round clock, serving
// nothing.  Only the cluster driver calls these; a single-server run
// never does, and all failover state then stays zero (the pinned
// goldens cover that).

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
// device drops its work, and until Revive StepOne only advances the
// clock.  Requires a live cluster member (TechniqueInfo.NewMember):
// in the closed loop an aborted station
// reissues immediately and the drain below could never terminate.  A
// dead engine returns ErrKillDead, a closed-loop one ErrKillClosedLoop,
// and neither is changed.
func (e *Engine) Kill() (KillReport, error) {
	if e.dead {
		return KillReport{}, ErrKillDead
	}
	if !e.member {
		return KillReport{}, ErrKillClosedLoop
	}
	var rep KillReport
	before := e.abortedTotal
	// Displays first: the staging abort inside killActive re-queues its
	// batched followers, and the queue drain below must see them.
	e.tech.killActive()
	// Followers whose leader already completed (or was superseded) have
	// no leader abort to detach them — end them directly.
	for st, active := range e.followerActive {
		if active {
			e.abortFollower(int32(st))
		}
	}
	rep.Aborted = e.abortedTotal - before
	e.win.OrphanedDisplays += rep.Aborted
	// Queued requests never started: their stations free up here and
	// their objects go to the cluster for re-admission, FIFO.
	for s := e.queue.head; s >= 0; s = e.queue.head {
		obj := int(e.queue.node[s].obj)
		e.queue.unlink(s)
		e.pinned[obj]--
		e.endUnserved(int(s), EvReject, obj, "orphaned")
		rep.Orphans = append(rep.Orphans, obj)
	}
	// Batched pending requests waiting on a queued leader drain the
	// same way, ascending object order.
	if e.cache != nil {
		for _, obj := range e.cache.PendingObjects(nil) {
			e.pendingBuf = e.cache.TakePending(obj, e.pendingBuf[:0])
			for _, p := range e.pendingBuf {
				e.pendingFollowers--
				e.endUnserved(int(p.Station), EvReject, obj, "orphaned")
				rep.Orphans = append(rep.Orphans, obj)
			}
		}
	}
	e.tman.Reset()
	e.dead = true
	return rep, nil
}

// Revive restarts the member at its current interval, the one its
// dead steps have reached: the RAM tier flushes cold.  The calendars
// are left as they are: Kill ended every display, follower and
// staging, and each consumer rejects such stale entries when their
// slot drains.  Disk contents survive — the transient-fault model disk
// repairs use — so the member serves its pre-kill catalog, just with a
// cold cache and empty queues.  A live engine returns ErrReviveLive
// and is not changed.
func (e *Engine) Revive() error {
	if !e.dead {
		return ErrReviveLive
	}
	if e.cache != nil {
		e.cache.Flush()
	}
	e.dead = false
	return nil
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
