package sched

import (
	"math"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/rng"
)

// This file is the engine half of the memory tier (DESIGN.md §12): the
// hooks that route requests through the prefix cache and the
// multicast/batching registries, follower display lifecycle, and the
// open Poisson arrival process that the cache experiments drive the
// engine with.  Requests only reach the cache through the record and
// admit paths of the interval loop.

// followerRef identifies one scheduled follower completion on the
// follower ring; gen stales entries whose follower was detached or
// killed.  An entry with station leaderEnds marks instead the end of
// the leader stream of object gen, where the tier retires its
// registration.
type followerRef struct {
	station int32
	gen     int32
}

const leaderEnds = -1

// bindCache allocates the tier and the follower bookkeeping.
func (e *Engine) bindCache() {
	cfg := &e.cfg
	prefix := cache.PrefixSubobjects
	if prefix > cfg.Subobjects {
		prefix = cfg.Subobjects
	}
	bytesOf := func(degree int) int64 {
		return int64(float64(prefix) * float64(degree) * cfg.FragmentBytes)
	}
	e.cache = cache.NewTier(cfg.Cache, cfg.Objects, prefix, cfg.Degrees, cfg.M, bytesOf, float64(cfg.Subobjects))
	e.followers = newDueRing[followerRef](e.horizon)
	e.followerGen = make([]int32, cfg.Stations)
	e.followerActive = make([]bool, cfg.Stations)
	e.followerObj = make([]int32, cfg.Stations)
	e.batchAnchor = make([]int32, cfg.Objects)
}

// tryCacheServe intercepts a newly drawn reference before it joins the
// disk queue.  Every reference warms the cache (admission may pin the
// prefix); with batching on, the request then either attaches to the
// object's in-flight leader stream as a follower — the resident prefix
// covers the gap it trails by, so playback starts now and no disk
// bandwidth is consumed — or, if a request for the same object is
// still queued within the batch window, waits as pending and boards
// the leader's stream at admission.  Reports whether the request was
// absorbed by the tier.
func (e *Engine) tryCacheServe(s, obj int) bool {
	e.cache.Reference(obj, e.now)
	window := e.cfg.Cache.BatchWindow
	if window <= 0 {
		return false
	}
	if _, ok := e.cache.AttachGap(obj, e.now, window); ok {
		e.servedCache++
		e.cacheHitBytes += e.cache.Bytes(obj)
		e.startFollower(s, obj, e.now+e.cfg.Subobjects, 0)
		return true
	}
	if e.pinned[obj] > 0 && e.now-int(e.batchAnchor[obj]) <= window {
		e.cache.AddPending(obj, int32(s), int32(e.now))
		e.pendingFollowers++
		return true
	}
	return false
}

// startFollower begins a batched follower display on station st: it
// shares the leader's disk streams, so it only exists as a completion
// on the follower ring and a share-list entry for detach-on-abort.
func (e *Engine) startFollower(st, obj, endAt, latIntervals int) {
	e.followerGen[st]++
	e.followerActive[st] = true
	e.followerObj[st] = int32(obj)
	e.activeFollowers++
	e.followers.add(e.now, endAt, followerRef{station: int32(st), gen: e.followerGen[st]})
	e.cache.AddFollower(obj, int32(st))
	e.batchedFollowers++
	e.admittedTotal++
	e.latency.Add(float64(latIntervals) * e.dt)
	e.emit(EvAdmit, obj, st, "follower")
}

// noteAdmit records the admission of station s's queued request:
// latency, the cache-hit discount, the leader registration, and the
// boarding of pending batched followers.  The techniques call it at
// every admission; with the cache disabled it only adds the wait to
// the latency tally.
func (e *Engine) noteAdmit(s int32, tmax int) {
	e.admittedTotal++
	obj, wait := int(e.queue.node[s].obj), e.now-int(e.queue.node[s].at)
	if e.cache == nil {
		e.latency.Add(float64(wait) * e.dt)
		return
	}
	res := e.cache.Resident(obj)
	lat := wait
	if res {
		// The pinned prefix plays while the disk streams start: up to
		// PrefixLen intervals of queueing are invisible to the viewer.
		e.servedCache++
		e.cacheHitBytes += e.cache.Bytes(obj)
		if lat -= e.cache.PrefixLen(); lat < 0 {
			lat = 0
		}
	}
	e.latency.Add(float64(lat) * e.dt)
	if e.cfg.Cache.BatchWindow <= 0 {
		return // without batching nothing attaches to a leader
	}
	end := e.now + tmax + e.cfg.Subobjects
	e.cache.SetLeader(obj, s, e.now, end, tmax)
	e.followers.add(e.now, end, followerRef{station: leaderEnds, gen: int32(obj)})
	e.pendingBuf = e.cache.TakePending(obj, e.pendingBuf[:0])
	for _, p := range e.pendingBuf {
		e.pendingFollowers--
		plat := e.now - int(p.Arrived)
		if res {
			e.servedCache++
			e.cacheHitBytes += e.cache.Bytes(obj)
			if plat -= e.cache.PrefixLen(); plat < 0 {
				plat = 0
			}
		}
		e.startFollower(int(p.Station), obj, end, plat)
	}
}

// finishFollowers completes follower displays due this interval.
// Entries whose generation is stale (the follower was detached by a
// leader abort, or ended by a Kill) are skipped.
func (e *Engine) finishFollowers() {
	for _, fr := range e.followers.due(e.now) {
		st := fr.station
		if st == leaderEnds {
			e.cache.EndLeader(int(fr.gen), e.now)
			continue
		}
		if !e.followerActive[st] || e.followerGen[st] != fr.gen {
			continue
		}
		e.followerActive[st] = false
		e.activeFollowers--
		obj := int(e.followerObj[st])
		e.cache.RemoveFollower(obj, st)
		e.completed++
		e.completedTotal++
		e.stn.Complete(int(st))
		e.emit(EvComplete, obj, int(st), "follower")
		e.reissue(int(st))
	}
}

// detachFollowers ends the followers sharing station s's stream when
// that leader display is aborted: without the leader's disk streams
// there is nothing multicasting the tail, so the followers abort too
// and their stations rejoin the loop.
func (e *Engine) detachFollowers(s, object int) {
	buf, ok := e.cache.DetachIfLeader(object, int32(s), e.now, e.detachBuf[:0])
	e.detachBuf = buf
	if !ok {
		return
	}
	for _, st := range buf {
		if !e.followerActive[st] {
			continue
		}
		e.followerGen[st]++ // stales the ring entry
		e.followerActive[st] = false
		e.activeFollowers--
		e.aborted++
		e.abortedTotal++
		e.stn.Complete(int(st))
		e.emit(EvAbort, object, int(st), "follower")
		e.reissue(int(st))
	}
}

// rejectPending refuses the batched followers of an object whose last
// queued leader request was just rejected: nobody is left to board.
func (e *Engine) rejectPending(object int) {
	e.pendingBuf = e.cache.TakePending(object, e.pendingBuf[:0])
	for _, p := range e.pendingBuf {
		e.pendingFollowers--
		e.rejectedDeg++
		e.stn.Complete(int(p.Station))
		e.emit(EvReject, object, int(p.Station), "follower")
		e.reissue(int(p.Station))
	}
}

// cacheStagingAborted detaches the batched followers of an object
// whose tertiary staging was abandoned mid-flight (fault kill or Place
// starvation): the leader request they were waiting on may not admit
// for a long time, if ever, so they requeue as ordinary requests
// instead of sitting in the batch.  Safe at every abandonment site —
// they all precede the admission scan within the interval.  No-op when
// the tier is off.
func (e *Engine) cacheStagingAborted(object int) {
	if e.cache == nil || object < 0 {
		return
	}
	e.pendingBuf = e.cache.TakePending(object, e.pendingBuf[:0])
	for _, p := range e.pendingBuf {
		e.pendingFollowers--
		if e.pinned[object] == 0 {
			e.batchAnchor[object] = p.Arrived
		}
		// Already counted in requests at original arrival — this is the
		// queueing tail of record, not a new reference.
		e.queueRequest(int(p.Station), object, int(p.Arrived), "follower detached")
	}
}

// openArrivals drives the engine as an open system: a Poisson stream
// of requests at ArrivalsPerHour, each occupying an idle station for
// its display.  Arrivals that find every station busy are rejected —
// the open-system analogue of queueing delay in the closed loop.
type openArrivals struct {
	stream  rng.Stream
	idle    []int32 // LIFO pool of idle stations
	nextAt  float64 // seconds of the next arrival
	meanGap float64 // mean seconds between arrivals

	rejected      int // window counter
	rejectedTotal int
}

func newOpenArrivals(cfg Config) *openArrivals {
	o := &openArrivals{}
	// LIFO init in reverse so station 0 serves the first arrival.
	o.idle = make([]int32, cfg.Stations)
	for i := range o.idle {
		o.idle[i] = int32(cfg.Stations - 1 - i)
	}
	if cfg.ArrivalsPerHour == 0 {
		// A cluster member: the cluster injects arrivals
		// (Engine.InjectArrival); the engine's own stream never fires.
		o.nextAt = math.Inf(1)
		return o
	}
	o.meanGap = 3600 / cfg.ArrivalsPerHour
	o.stream = *rng.NewSource(cfg.Seed).Stream("arrivals")
	o.nextAt = o.stream.Exp(o.meanGap)
	return o
}

// drawArrivals admits every arrival due within the current interval.
func (e *Engine) drawArrivals() {
	o := e.open
	limit := float64(e.now+1) * e.dt
	for o.nextAt < limit {
		if n := len(o.idle); n > 0 {
			s := o.idle[n-1]
			o.idle = o.idle[:n-1]
			e.enqueue(int(s))
		} else {
			o.rejected++
			o.rejectedTotal++
		}
		o.nextAt += o.stream.Exp(o.meanGap)
	}
}
