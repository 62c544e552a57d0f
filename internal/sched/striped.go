package sched

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/vdisk"
)

// streamRef addresses one buffering stream of a display on the release
// calendar: the display's arena slot and the stream index.
type streamRef struct {
	slot int32
	i    int32
}

// stripedTech is the striping family's Technique: simple striping
// (k = M) and staggered striping (any k) share it, differing only in
// the configured stride and in whether Algorithms 1 and 2 run (the
// staggered registry key).  Occupancy is tracked in virtual-disk
// space: physical disk f at interval t corresponds to virtual disk
// (f − K·t) mod D, and a display's streams own fixed virtual disks for
// the duration of their reads, so bookkeeping is O(1) per stream per
// transition rather than per interval.
//
// All per-interval work is event-driven: buffering-stream releases and
// display completions live on interval calendars (dueRing), the farm-busy
// integral is maintained incrementally at every acquire/release site,
// Algorithm 2 visits only the waiters of the virtual disks that are
// free, and the admission scan visits the new arrivals and the free
// windows of a ready-request index, not the queue (admitindex.go);
// only while a disk is down does one queue walk refuse the unplayable
// requests.  An interval in which nothing happens costs O(D/64) word
// tests for the waiters, independent of the number of active displays
// and the queue length.
//
// Display state is a struct-of-arrays arena (DESIGN.md §11): a display
// is an int32 slot into parallel slices (dStation, dObject, …) and a
// fixed-stride stream arena (sVdisk, sT), not a heap object.  At 20k
// stations that removes per-display allocation and pointer chasing
// from the hot path, and lets the calendars and the occupancy table
// hold 4-byte slots instead of 8-byte pointers.  Slots of contiguous
// (tmax = 0) displays are recycled LIFO after completion; fragmented
// and aborted displays keep their slots, exactly as the old pool kept
// their heap objects, because stale ring entries may still address
// them.
type stripedTech struct {
	eng    *Engine
	cfg    Config
	layout core.Layout
	store  *core.Store

	// staggered enables Algorithm-1 admission on non-adjacent virtual
	// disks and Algorithm-2 coalescing (§3.2.1): the staggered
	// technique, as opposed to simple striping's contiguous admission.
	staggered bool

	vbusy    []int32  // virtual disk -> owner display slot, matOwner, or freeSlot
	freeBits []uint64 // bitset of free virtual disks, maintained with vbusy
	busy     int      // count of non-free virtual disks, maintained incrementally
	rot      int      // (K·now) mod D, cached once per interval for vdiskOf

	// Display arena.  Slot s's stream i lives at s·stride+i in the
	// stream arena; stride is the maximum degree of declustering.
	dStation  []int32
	dObject   []int32
	dFirst    []int32 // disk of the object's fragment (0,0)
	dTau0     []int32 // admission interval
	dTmax     []int32
	dSeq      []int32 // admission sequence, monotone across slot reuse
	dM        []int32 // stream count (the object's degree)
	dDone     []bool  // delivery completed or aborted
	dDeg      []int32 // consecutive degraded intervals
	dDegAt    []int32 // last degraded interval, -2 = never
	sVdisk    []int32 // stream -> serving virtual disk, -1 released
	sT        []int32 // stream -> alignment delay T_i
	stride    int
	minDegree int // smallest degree any object needs; admit's farm-full gate

	nextSeq  int32
	active   int     // displays currently in delivery
	byObject []int32 // object -> active display count

	fifo []int32 // object -> its ready FIFO (admitindex.go), -1 unless ready

	// Event-driven admission (admitindex.go).  fresh is the first
	// station queued since the last scan, -1 when none: it and the
	// stations behind it need a tertiary Request.  When the device
	// drops its requests, every cold entry needs a new one, so fresh
	// moves back to the queue head.
	idx   readyIndex
	fresh int32
	cands []uint64 // scratch: FIFO heads to probe, keyed as admitIndexed packs them
	spare []uint64 // scratch: sortKeys' second buffer, allocated by the first radix sort
	work  admitWork

	// freeRun caches whether minDegree consecutive virtual disks are
	// free (admitindex.go): setVBusy forgets a present run when it takes
	// a disk and an absent one when it frees a disk.
	freeRun runState

	// freeEpoch counts the virtual disks setVBusy has freed: a refusal
	// lease (admitindex.go) holds only while it is the epoch the lease
	// was proved at.  epochSeen is its value at the last admit, which
	// drops every lease once the counter has wrapped.
	freeEpoch uint32
	epochSeen uint32

	// fullScan forces scanAdmit in every interval: the oracle the
	// indexed path is tested against.  Only tests set it.
	fullScan bool

	// Event calendars.  Only a stream that buffers ahead of its display
	// (T_i < Tmax) gets a release, added by start in admission order; a
	// completion releases the rest.  Entries may be stale (a coalescing
	// move, a fault or a Kill); consumers revalidate against live state.
	releases    dueRing[streamRef] // buffering-stream releases
	completions dueRing[int32]     // delivery ends (display slots)
	pool        []int32            // recycled contiguous display slots

	// Algorithm 2's waiters, staggered technique only.  A stream that
	// buffers ahead of its display (T_i < Tmax) and does not already
	// hold its ideal virtual disk is linked, at start, into the list
	// headed at that disk; a stream's ideal never changes, so it is on
	// one list at most.  waitBits marks the disks whose list is
	// non-empty.  An entry goes stale when its display ends, its stream
	// releases or it moves; the pass unlinks stale entries as it walks.
	// Fragmented slots are never pooled, so a stale entry never
	// addresses another display's stream.
	waitHead  []int32  // virtual disk -> first waiting stream, -1 when none
	sNext     []int32  // stream -> next stream on its list, -1 at the end
	waitBits  []uint64 // bitset of virtual disks with a waiter
	waitCands []uint64 // scratch: one pass's candidates, dSeq<<32 | stream, ascending
	cwork     coalesceWork

	// scanCoalesce, when set, runs in place of the waiter pass: the
	// per-interval scan the tests compare it against.  Only tests set it.
	scanCoalesce func()

	// Reusable scratch buffers (hot path, zero steady-state allocs).
	vidScratch  []int
	tsScratch   []int
	zeroTs      []int
	candScratch []int

	// Tertiary state.
	matObject    int // object being staged, -1 when idle
	matStarted   bool
	matRemaining int
	matVdisks    []int
	matRetries   int  // failed Place attempts for the pending staging
	matNextTry   int  // backoff: no Place attempt before this interval
	matPressured bool // the eviction-pressure fallback already fired
}

const (
	freeSlot int32 = -1
	matOwner int32 = -2
)

// bind allocates the striped technique's state and preloads the farm.
func (t *stripedTech) bind(e *Engine) error {
	cfg := e.cfg
	layout, err := core.NewLayout(cfg.D, cfg.K)
	if err != nil {
		return err
	}
	st, err := core.NewStore(layout, cfg.CapacityFragments)
	if err != nil {
		return err
	}
	minDegree, maxDegree := cfg.degreeRange()
	t.eng = e
	t.cfg = cfg
	t.layout = layout
	t.store = st
	t.vbusy = make([]int32, cfg.D)
	t.freeBits = make([]uint64, (cfg.D+63)/64)
	for i := range t.freeBits {
		t.freeBits[i] = ^uint64(0)
	}
	if r := cfg.D & 63; r != 0 {
		t.freeBits[len(t.freeBits)-1] = 1<<uint(r) - 1
	}
	t.byObject = make([]int32, cfg.Objects)
	t.idx = newReadyIndex(cfg.Stations, cfg.D)
	t.fresh = -1
	t.fifo = make([]int32, cfg.Objects)
	for i := range t.fifo {
		t.fifo[i] = -1
	}
	t.releases = newDueRing[streamRef](e.horizon)
	t.completions = newDueRing[int32](e.horizon)
	t.stride = maxDegree
	t.minDegree = minDegree
	t.vidScratch = make([]int, maxDegree)
	t.tsScratch = make([]int, maxDegree)
	t.zeroTs = make([]int, maxDegree)
	t.matObject = -1
	for i := range t.vbusy {
		t.vbusy[i] = freeSlot
	}
	if t.staggered {
		t.waitHead = make([]int32, cfg.D)
		for i := range t.waitHead {
			t.waitHead[i] = -1
		}
		t.waitBits = make([]uint64, len(t.freeBits))
	}
	// Best-effort fill: with strides whose footprints have ramps
	// (k < M and short objects) the farm cannot always be packed to
	// the last fragment, so preloading stops at the first object that
	// no longer fits — exactly what on-demand materialization would
	// have produced.  Reserve sizes the store tables for the catalog
	// first; Preload refuses ids outside it.
	t.store.Reserve(cfg.Objects)
	ids := t.preloadIDs()
	for _, id := range ids[:t.store.Preload(ids, cfg.Degree, cfg.Subobjects)] {
		first, _ := t.store.FirstDisk(id)
		t.fifo[id] = t.idx.fifoOf(first, cfg.Degree(id))
	}
	// The preloaded catalog's FIFOs exist from the start, so a run that
	// stages nothing allocates no index state while it steps.
	n := len(t.idx.fifos)
	t.idx.live = make([]liveFIFO, 0, n)
	t.cands = make([]uint64, 0, n)
	return nil
}

// preloadIDs returns the objects bind preloads, in order: the
// PreloadTop (by default as many as fit) most popular objects, or a
// cluster member's assigned set, the cluster's replicas spread across
// members by Zipf rank.
func (t *stripedTech) preloadIDs() []int {
	if t.eng.member {
		return t.eng.preload
	}
	preload := t.cfg.PreloadTop
	if preload == 0 {
		preload = t.cfg.DefaultPreload()
	}
	return t.eng.gen.TopObjects(preload)
}

func (t *stripedTech) name() string { return StripingTechniqueName(t.cfg) }

func (t *stripedTech) onEnqueue(s int32) {
	x := &t.idx
	x.seq[s] = x.nextSeq
	if x.nextSeq++; x.nextSeq-x.seq[t.eng.queue.head] >= seqSpan {
		x.dirty = true
	}
	if t.fresh < 0 {
		t.fresh = s
	}
	if id := t.fifo[t.eng.queue.node[s].obj]; id >= 0 && !x.dirty {
		x.push(s, id)
	}
}

// setReady flips an object's readiness, resolving a ready object's FIFO
// once.  A flip of a queued object (one with a pin count) moves its
// requests into or out of the ready index, which is then rebuilt before
// the next indexed scan.
func (t *stripedTech) setReady(obj int, ready bool) {
	if (t.fifo[obj] >= 0) == ready {
		return
	}
	if t.eng.pinned[obj] > 0 {
		t.idx.dirty = true
	}
	t.fifo[obj] = -1
	if ready {
		first, _ := t.store.FirstDisk(obj) // placed before it turns ready
		t.fifo[obj] = t.idx.fifoOf(first, t.cfg.Degree(obj))
	}
	t.eng.syncHeld(obj)
}

// interval runs one interval of striping policy: claim endings,
// tertiary progress, admissions, then Algorithm 2 coalescing for the
// staggered technique; it returns the busy-disk count for the utilization
// integral.
func (t *stripedTech) interval() int {
	e := t.eng
	t.rot = (t.cfg.K * e.now) % t.cfg.D
	if e.faultActive() {
		t.degradedScan()
	}
	t.finishDue()
	t.stepTertiary()
	t.admit()
	if t.scanCoalesce != nil {
		t.scanCoalesce()
	} else if t.staggered {
		t.coalesce()
	}
	return t.busy
}

func (t *stripedTech) activeDisplays() int { return t.active }

// onFault reconciles technique state with an effective fault
// transition.  Disk up/down flips need no immediate work here: the
// per-interval degradedScan handles in-flight displays, and admission
// reads the down-disk mask afresh.  A tertiary outage abandons staging
// work.
func (t *stripedTech) onFault(ev fault.Event) {
	switch ev.Kind {
	case fault.TertiaryFail:
		if t.matObject >= 0 {
			t.abortStaging()
		}
	}
}

// degradedScan visits every faulted physical disk once per interval
// and degrades whatever is reading or writing it right now: displays
// ride out up to the hiccup limit of consecutive degraded intervals
// on a DOWN disk before aborting (a slow disk only inflates the
// hiccup count), and a materialization writing to a down disk is
// abandoned.  The scan iterates the engine's sorted faulted-disk
// active set — ascending disk order, the same order the old full
// walk visited — so its cost is O(faulted disks), not O(D).
func (t *stripedTech) degradedScan() {
	e := t.eng
	for _, f32 := range e.faultedDisks {
		f := int(f32)
		down := e.diskFault[f]&downBit != 0
		v := t.vdiskOf(f)
		owner := t.vbusy[v]
		if owner == freeSlot {
			continue
		}
		if owner == matOwner {
			if down {
				t.abortStaging()
			}
			continue
		}
		d := owner
		if t.dDone[d] {
			continue
		}
		if int(t.dDegAt[d]) == e.now {
			continue // two faulted streams in one interval count once
		}
		if int(t.dDegAt[d]) != e.now-1 {
			t.dDeg[d] = 0 // the previous degraded run ended; resync
		}
		t.dDegAt[d] = int32(e.now)
		t.dDeg[d]++
		e.win.DegradedHiccups++
		if down && int(t.dDeg[d]) > faultHiccupLimit {
			t.abortDisplay(d)
		}
	}
}

// abortDisplay kills an in-flight display: all stream claims release
// immediately, pending ring entries go stale (consumers revalidate),
// and the station rejoins the closed loop through the abort path.
// The slot is never pooled — stale refs may still address it.
func (t *stripedTech) abortDisplay(d int32) {
	base := int(d) * t.stride
	for i := 0; i < int(t.dM[d]); i++ {
		if v := t.sVdisk[base+i]; v >= 0 {
			t.setVBusy(int(v), freeSlot)
			t.sVdisk[base+i] = -1
		}
	}
	t.dDone[d] = true
	t.active--
	t.byObject[t.dObject[d]]--
	t.eng.countAbort(int(t.dStation[d]), int(t.dObject[d]))
}

// killActive implements the whole-server kill (DESIGN.md §14): the
// staging aborts first (its batched followers re-queue, and the engine
// drains the queue right after), then every in-flight display aborts
// through the same typed path a disk fault uses.  Pooled slots have
// dDone set, so the arena walk naturally skips them.  After the walk
// every virtual disk is free, the ready index is marked for a rebuild,
// and no entry of the queue, about to be drained, counts as fresh.
func (t *stripedTech) killActive() {
	if t.matObject >= 0 {
		t.abortStaging()
	}
	for d := int32(0); d < int32(len(t.dDone)); d++ {
		if !t.dDone[d] {
			t.abortDisplay(d)
		}
	}
	t.idx.dirty, t.fresh = true, -1
}

// adoptObject places a copy of id for the replica-healing pass without
// consuming tertiary time — the cluster layer's per-window budget is
// the bandwidth model.  It declines objects already held, being
// staged, or pending on the device.
func (t *stripedTech) adoptObject(id int) bool {
	if t.fifo[id] >= 0 || t.store.Resident(id) || id == t.matObject || t.eng.tman.Pending(id) {
		return false
	}
	if !t.tryPlace(id) {
		return false
	}
	t.setReady(id, true)
	t.eng.emit(EvMatEnd, id, -1, "healed")
	return true
}

// abortStaging abandons the pending or in-flight materialization: the
// write claims release, an object placed for the staging is evicted
// rather than published — whether or not its write had begun, since
// the staging object is never ready and nothing else frees a placement
// that never turned ready — and the device request is dropped
// (stations still wanting the object re-request it on their next
// admission scan).
func (t *stripedTech) abortStaging() {
	t.eng.cacheStagingAborted(t.matObject)
	for _, v := range t.matVdisks {
		t.setVBusy(v, freeSlot)
	}
	t.matVdisks = t.matVdisks[:0]
	if t.store.Resident(t.matObject) {
		t.eng.emit(EvEvict, t.matObject, -1, "staging aborted")
		_ = t.store.Evict(t.matObject)
	}
	t.matObject = -1
	t.matStarted = false
	t.matRetries, t.matNextTry, t.matPressured = 0, 0, false
	t.eng.tman.Abort()
	t.fresh = t.eng.queue.head
}

// playable reports whether an object's resident layout avoids every
// down disk for the full duration of a display.
func (t *stripedTech) playable(obj int) bool {
	e := t.eng
	if e.downCount == 0 {
		return true
	}
	p, resident := t.store.Placement(obj)
	if !resident {
		return true
	}
	for _, f := range e.faultedDisks {
		if e.diskFault[f]&downBit != 0 && footprintHits(p.First, t.cfg.Degree(obj), int(f), t.cfg.K, t.cfg.D, t.cfg.Subobjects) {
			return false
		}
	}
	return true
}

// footprintHits reports whether a placement of degree m starting at
// disk first, displayed for n subobjects at stride k on d disks, reads
// disk f.  Stream j reads disk (first+j+k·t) mod d for subobject t, so
// it hits f iff vdisk.FirstAlignment finds such a t < n.
func footprintHits(first, m, f, k, d, n int) bool {
	for j := 0; j < m; j++ {
		if t, ok := vdisk.FirstAlignment((first+j)%d, f, k, d); ok && t < n {
			return true
		}
	}
	return false
}

func (t *stripedTech) uniqueResidents() int { return t.store.ResidentCount() }

func (t *stripedTech) holdsObject(id int) bool { return t.fifo[id] >= 0 }

// vdiskOf maps physical disk f at the current interval to its global
// virtual disk, (f − K·now) mod D.  The rotation (K·now) mod D is
// cached once per interval, so the map is a subtraction and one
// conditional wrap instead of a full modulo chain.
func (t *stripedTech) vdiskOf(f int) int {
	v := f - t.rot
	if v < 0 {
		v += t.cfg.D
	}
	return v
}

// setVBusy transfers ownership of virtual disk v and maintains the
// farm-busy counter and the free bitset — the incremental replacement
// for the per-interval O(D) occupancy scan — forgets what freeRun
// knows when the change can alter it, and starts a new free epoch when
// it frees the disk.  With bind, it is the only writer of freeBits.
// The owner is a display slot (or matOwner / freeSlot), so the
// degraded scan can walk from a faulted physical disk straight to the
// display it hurts.
func (t *stripedTech) setVBusy(v int, owner int32) {
	if (t.vbusy[v] == freeSlot) != (owner == freeSlot) {
		if owner == freeSlot {
			t.busy--
			t.freeBits[v>>6] |= 1 << uint(v&63)
			t.freeRun &^= runAbsent
			t.freeEpoch++
		} else {
			t.busy++
			t.freeBits[v>>6] &^= 1 << uint(v&63)
			t.freeRun &^= runPresent
		}
	}
	t.vbusy[v] = owner
}

// allocSlot returns a display slot: a recycled contiguous slot when
// one is pooled, a fresh arena extension otherwise.
func (t *stripedTech) allocSlot() int32 {
	if k := len(t.pool); k > 0 {
		s := t.pool[k-1]
		t.pool = t.pool[:k-1]
		return s
	}
	t.dStation = append(t.dStation, 0)
	t.dObject = append(t.dObject, 0)
	t.dFirst = append(t.dFirst, 0)
	t.dTau0 = append(t.dTau0, 0)
	t.dTmax = append(t.dTmax, 0)
	t.dSeq = append(t.dSeq, 0)
	t.dM = append(t.dM, 0)
	t.dDone = append(t.dDone, false)
	t.dDeg = append(t.dDeg, 0)
	t.dDegAt = append(t.dDegAt, -2)
	for i := 0; i < t.stride; i++ {
		t.sVdisk = append(t.sVdisk, -1)
		t.sT = append(t.sT, 0)
		if t.staggered {
			t.sNext = append(t.sNext, -1)
		}
	}
	return int32(len(t.dStation) - 1)
}

// finishDue releases stream disks whose reads end this interval and
// completes displays whose delivery has ended, with the streams still
// reading; completed stations immediately reissue (zero think time).
// Both are calendar drains: only what fires now is touched.
func (t *stripedTech) finishDue() {
	e := t.eng
	for _, ref := range t.releases.due(e.now) {
		// Revalidate against the display's current state: entries go
		// stale when a coalescing move put the stream on the display's
		// clock or a fault or a Kill aborted the display.
		d := ref.slot
		si := int(d)*t.stride + int(ref.i)
		if e.now == int(t.dTau0[d])+int(t.sT[si])+t.cfg.Subobjects {
			t.release(d, si)
		}
	}
	if ds := t.completions.due(e.now); len(ds) > 0 {
		reissue := e.reissueBuf[:0]
		for _, d := range ds {
			if t.dDone[d] {
				continue // aborted by a fault; the abort path settled it
			}
			for si := int(d) * t.stride; si < int(d)*t.stride+int(t.dM[d]); si++ {
				t.release(d, si)
			}
			t.dDone[d] = true
			t.active--
			t.byObject[t.dObject[d]]--
			s := int(t.dStation[d])
			e.emit(EvComplete, int(t.dObject[d]), s, "")
			e.countComplete(s)
			reissue = append(reissue, s)
			// Contiguous displays are unreachable once completed (they
			// have no release entries, and their streams never wait on a
			// disk) — recycle the slot.
			if t.dTmax[d] == 0 {
				t.pool = append(t.pool, d)
			}
		}
		for _, s := range reissue {
			e.reissue(s)
		}
		e.reissueBuf = reissue[:0]
	}
}

// release frees stream si of display d's virtual disk, if it still
// holds one; a disk another owner holds is a hiccup.
func (t *stripedTech) release(d int32, si int) {
	if v := t.sVdisk[si]; v >= 0 {
		if t.vbusy[v] != d {
			t.eng.hiccups++
		}
		t.setVBusy(int(v), freeSlot)
		t.sVdisk[si] = -1
	}
}

// stepTertiary advances the materialization pipeline.
func (t *stripedTech) stepTertiary() {
	e := t.eng
	if t.matObject >= 0 && t.matStarted {
		e.tertBusy++
		t.matRemaining--
		if t.matRemaining == 0 {
			t.finishMaterialization()
		}
		return
	}
	if e.tertDown {
		return // device offline: no new staging starts
	}
	if t.matObject < 0 {
		id, ok := e.tman.StartNext()
		if !ok {
			return
		}
		t.matObject = id
		t.matRetries, t.matNextTry, t.matPressured = 0, 0, false
	}
	// Stage the pending object: secure space, then disks.
	obj := t.matObject
	if !t.store.Resident(obj) {
		if e.now < t.matNextTry {
			return // backing off after a failed Place
		}
		if !t.tryPlace(obj) {
			t.placeFailed(obj)
			return
		}
		t.matRetries, t.matNextTry = 0, 0
	}
	p, _ := t.store.Placement(obj)
	w := t.cfg.Tertiary.DisksOccupied(t.cfg.BDisk)
	if w > t.cfg.Degree(obj) {
		w = t.cfg.Degree(obj)
	}
	vids := t.vidScratch[:w]
	for j := 0; j < w; j++ {
		v := t.vdiskOf((p.First + j) % t.cfg.D)
		if t.vbusy[v] != freeSlot {
			return // write disks busy; retry next interval
		}
		vids[j] = v
	}
	for _, v := range vids {
		t.setVBusy(v, matOwner)
	}
	t.matVdisks = append(t.matVdisks[:0], vids...)
	t.matStarted = true
	t.matRemaining = t.cfg.MaterializeIntervalsOf(obj)
	if e.tracer != nil {
		e.emit(EvMatStart, obj, -1, fmt.Sprintf("%d intervals", t.matRemaining+1))
	}
	e.tertBusy++ // the starting interval counts as busy
	t.matRemaining--
	if t.matRemaining == 0 {
		t.finishMaterialization()
	}
}

// tryPlace secures space (evicting cold residents as needed) and a
// contiguous start for obj: the staging step, shared by the retry
// path after eviction pressure and by replica healing.
func (t *stripedTech) tryPlace(obj int) bool {
	if !t.makeRoom(obj) {
		return false
	}
	if _, err := t.store.Place(obj, t.cfg.Degree(obj), t.cfg.Subobjects); err != nil {
		return false
	}
	return true
}

// placeFailed handles one failed Place attempt: it backs off
// exponentially, fires the one-shot eviction-pressure fallback at the
// retry cap when enabled, and finally abandons the staging as starved
// so the run fails loudly instead of retrying forever (the DESIGN.md
// §9 livelock) or delivering a silent zero-display sweep.
func (t *stripedTech) placeFailed(obj int) {
	e := t.eng
	limit := t.cfg.PlaceRetryLimit
	if limit == 0 {
		limit = DefaultPlaceRetryLimit
	}
	t.matRetries++
	if t.matRetries >= limit {
		if t.cfg.EvictionPressure && !t.matPressured {
			// Last resort before starving: evict every replaceable
			// resident, trading catalog variety for a defragmented
			// farm, and try once more.
			t.matPressured = true
			t.pressureEvict()
			if t.tryPlace(obj) {
				t.matRetries, t.matNextTry = 0, 0
				return
			}
		}
		e.countStarved(obj)
		t.matObject = -1
		t.matRetries, t.matNextTry, t.matPressured = 0, 0, false
		e.tman.Abort()
		t.fresh = e.queue.head
		return
	}
	// Exponential backoff, capped at 16 intervals: the farm only
	// changes when displays end or evictions fire, so hammering Place
	// every interval buys nothing.
	shift := t.matRetries
	if shift > 4 {
		shift = 4
	}
	t.matNextTry = e.now + 1<<shift
}

// pressureEvict evicts every currently replaceable resident — beyond
// the strict byte need makeRoom stops at — so a fragmented exact-fit
// farm gets one defragmented chance before a staging starves.
func (t *stripedTech) pressureEvict() {
	e := t.eng
	victims := append(t.candScratch[:0], t.store.ResidentIDs()...)
	for _, id := range victims {
		if !t.evictable(id) {
			continue
		}
		t.setReady(id, false)
		e.emit(EvEvict, id, -1, "pressure")
		if err := t.store.Evict(id); err != nil {
			e.hiccups++
		}
	}
	t.candScratch = victims[:0]
}

// finishMaterialization publishes the staged object and frees the
// write disks and the device.
func (t *stripedTech) finishMaterialization() {
	e := t.eng
	e.emit(EvMatEnd, t.matObject, -1, "")
	t.setReady(t.matObject, true)
	for _, v := range t.matVdisks {
		t.setVBusy(v, freeSlot)
	}
	t.matVdisks = t.matVdisks[:0]
	t.matObject = -1
	t.matStarted = false
	if _, err := e.tman.Finish(); err != nil {
		e.hiccups++
	}
	e.win.Materializa++
}

// makeRoom evicts least-frequently-accessed evictable objects until
// the farm has space for obj.  It reports whether enough space exists.
// The candidate set is built once per call and shrunk incrementally as
// victims go — nothing that happens inside this loop changes any other
// object's evictability.
func (t *stripedTech) makeRoom(obj int) bool {
	e := t.eng
	need := t.cfg.Degree(obj) * t.cfg.Subobjects
	if t.store.FreeFragments() >= need {
		return true
	}
	candidates := t.candScratch[:0]
	for _, id := range t.store.ResidentIDs() {
		if t.evictable(id) {
			candidates = append(candidates, id)
		}
	}
	defer func() { t.candScratch = candidates[:0] }()
	for t.store.FreeFragments() < need {
		victim, ok := e.lfu.Victim(candidates)
		if !ok {
			return false
		}
		for i, id := range candidates {
			if id == victim {
				candidates = append(candidates[:i], candidates[i+1:]...)
				break
			}
		}
		t.setReady(victim, false)
		e.emit(EvEvict, victim, -1, "")
		if err := t.store.Evict(victim); err != nil {
			e.hiccups++
			return false
		}
	}
	return true
}

// evictable reports whether object id may be replaced: resident,
// fully materialized, not being displayed, and not referenced by a
// queued request.
func (t *stripedTech) evictable(id int) bool {
	return t.fifo[id] >= 0 && t.byObject[id] == 0 && t.eng.pinned[id] == 0 && id != t.matObject
}

// fragmentedAttemptsPerInterval bounds how many queued requests may
// run the (O(M · min(maxStartup, D/gcd(K, D)))) Algorithm-1 walk in
// one interval.
const fragmentedAttemptsPerInterval = 8

// scanAdmit is the full admission scan: every queued request, in
// arrival order, through the per-entry path, with a tertiary Request
// for each cold one.  It is the oracle the event-driven admission is
// tested against (fullScan), and leaves the ready index to be rebuilt.
func (t *stripedTech) scanAdmit() {
	e := t.eng
	q := &e.queue
	fragBudget := fragmentedAttemptsPerInterval
	for s, next := q.head, int32(0); s >= 0; s = next {
		next = q.node[s].next
		t.work.touched++
		obj := int(q.node[s].obj)
		id := t.fifo[obj]
		if id < 0 {
			e.tman.Request(obj)
			continue
		}
		switch t.admitEntry(s, id, &fragBudget) {
		case entryAdmitted:
			q.unlink(s)
		case entryRejected:
			e.deferReject(s)
		}
	}
	t.fresh, t.idx.dirty = -1, true
	e.flushRejects()
}

// entryVerdict is what the per-entry admission path did with a request.
type entryVerdict uint8

const (
	entryKept entryVerdict = iota
	entryAdmitted
	entryRejected
)

// admitEntry is the per-entry admission path for a queued request whose
// object is ready, in FIFO id, shared by the full scan, the staggered
// prefix and the indexed probe.  An unplayable request is refused before
// any probe or Algorithm-1 budget use; one whose object needs more disks
// than the whole farm has free is kept without probing.
func (t *stripedTech) admitEntry(s, id int32, fragBudget *int) entryVerdict {
	obj := int(t.eng.queue.node[s].obj)
	if !t.playable(obj) {
		// The layout's stride orbit crosses a down disk: admitting
		// would guarantee hiccups or an abort, so refuse instead.
		return entryRejected
	}
	f := &t.idx.fifos[id] // the FIFO holds the first disk and degree
	if m := int(f.degree); t.cfg.D-t.busy >= m && t.tryAdmit(s, int(f.first), m, fragBudget) {
		t.eng.pinned[obj]--
		return entryAdmitted
	}
	return entryKept
}

// tryAdmit attempts a contiguous admission, falling back to
// time-fragmented admission (Algorithm 1) for the queue head under
// the staggered technique.
func (t *stripedTech) tryAdmit(s int32, first, m int, fragBudget *int) bool {
	// Contiguous: the M disks of subobject 0 must be free right now,
	// which they cannot be while freeRun knows of no minDegree
	// consecutive free virtual disks.
	if t.freeRun == runAbsent || !t.windowFree(first, m) {
		return t.tryFragmented(s, first, m, fragBudget)
	}
	vids := t.vidScratch[:m]
	v := t.vdiskOf(first)
	for j := range vids {
		vids[j] = v
		if v++; v == t.cfg.D {
			v = 0
		}
	}
	t.start(s, first, vids, t.zeroTs[:m], 0)
	return true
}

// tryFragmented runs the Algorithm-1 time-fragmented admission: a
// walk along each stream's stride orbit in virtual-disk space, on the
// free bitset itself, bounded by the startup limit.
func (t *stripedTech) tryFragmented(s int32, first, m int, fragBudget *int) bool {
	if !t.staggered || *fragBudget <= 0 {
		return false
	}
	*fragBudget--
	maxStartup := t.cfg.maxStartup(m)
	// Virtual disk v sits over physical disk v+rot, so the virtual disk
	// over stream i's fragment is vdiskOf(first)+i and the walk yields
	// global virtual disks directly.
	vids, ts := t.vidScratch[:m], t.tsScratch[:m]
	tmax, ok := vdisk.WalkOrbits(t.freeBits, t.cfg.D, t.cfg.K, t.vdiskOf(first), maxStartup, vids, ts)
	if !ok {
		return false
	}
	t.start(s, first, vids, ts, tmax)
	return true
}

// start activates a display of station s's queued request on the
// given virtual disks and schedules its future events: a release and a
// wait per stream that buffers (T_i < Tmax), and one completion.
func (t *stripedTech) start(s int32, first int, vids, ts []int, tmax int) {
	e := t.eng
	obj := e.queue.node[s].obj
	n := t.cfg.Subobjects
	d := t.allocSlot()
	t.dSeq[d] = t.nextSeq
	t.nextSeq++
	t.dStation[d] = s
	t.dObject[d] = obj
	t.dFirst[d] = int32(first)
	t.dTau0[d] = int32(e.now)
	t.dTmax[d] = int32(tmax)
	t.dM[d] = int32(len(vids))
	t.dDone[d] = false
	t.dDeg[d] = 0
	t.dDegAt[d] = -2 // never degraded: -2 is adjacent to no interval
	base := int(d) * t.stride
	for i := range vids {
		if t.vbusy[vids[i]] != freeSlot {
			e.hiccups++
		}
		t.setVBusy(vids[i], d)
		t.sVdisk[base+i] = int32(vids[i])
		t.sT[base+i] = int32(ts[i])
		if ts[i] < tmax {
			t.releases.add(e.now, e.now+ts[i]+n, streamRef{slot: d, i: int32(i)})
			t.cwork.releases++
			t.await(d, i, vids[i])
		}
	}
	t.completions.add(e.now, e.now+tmax+n, d) // deliveryEnd + 1
	t.active++
	t.byObject[obj]++
	e.noteAdmit(s, tmax)
	if e.tracer != nil {
		e.emit(EvAdmit, int(obj), int(s), fmt.Sprintf("first=%d tmax=%d", first, tmax))
	}
}

// idealOf returns the virtual disk a contiguous admission at τ0+Tmax
// would have used for stream i of display d: where Algorithm 2 moves
// the stream.  It depends on display constants only.
func (t *stripedTech) idealOf(d int32, i int) int {
	return vdisk.VirtualAt((int(t.dFirst[d])+i)%t.cfg.D, int(t.dTau0[d]+t.dTmax[d]), t.cfg.K, t.cfg.D)
}

// await links stream i of display d, which buffers ahead of the
// display on virtual disk v, into the waiter list of its ideal disk.
// A stream already on its ideal disk releases on its own clock and
// never waits.
func (t *stripedTech) await(d int32, i, v int) {
	u := t.idealOf(d, i)
	if u == v {
		return
	}
	s := int32(int(d)*t.stride + i)
	t.sNext[s] = t.waitHead[u]
	t.waitHead[u] = s
	t.waitBits[u>>6] |= 1 << uint(u&63)
}

// coalesceWork counts Algorithm 2's work in host-independent units, for
// the tests that bound it.
type coalesceWork struct {
	visited  int // waiter-list entries walked, stale ones included
	moves    int // streams moved to their ideal disk
	releases int // release entries booked, one per buffering stream
}

// coalesce applies Algorithm 2: any stream buffering ahead of the
// display (T_i < Tmax) moves to its ideal virtual disk as soon as that
// disk is free.  Only the waiters of disks that are free at the start
// of the pass, or that a move frees during it, are visited, and they
// move in (admission sequence, stream) order — the order of a walk
// over every buffering stream.  A disk a move frees is therefore open
// to its waiters later in that order in this pass, and to the earlier
// ones from the next interval on, when the pass finds it free.
func (t *stripedTech) coalesce() {
	cands := t.waitCands[:0]
	for w, word := range t.waitBits {
		for m := word & t.freeBits[w]; m != 0; m &= m - 1 {
			cands = t.gatherWaiters(w<<6|bits.TrailingZeros64(m), cands, -1)
		}
	}
	for p := 0; p < len(cands); p++ {
		si := int(uint32(cands[p]))
		d, i := int32(si/t.stride), si%t.stride
		ideal := t.idealOf(d, i)
		if t.vbusy[ideal] != freeSlot {
			continue // taken earlier in this pass; stays on its list
		}
		u := int(t.sVdisk[si])
		t.moveStream(d, i, ideal)
		if t.waitBits[u>>6]&(1<<uint(u&63)) != 0 {
			cands = t.gatherWaiters(u, cands, p)
		}
	}
	t.waitCands = cands[:0]
}

// gatherWaiters walks the waiter list of virtual disk u, unlinking the
// stale entries, and inserts the live waiters whose key follows
// cands[after] (every live waiter when after < 0) into cands in key
// order.  It clears u's bit when the list empties.
func (t *stripedTech) gatherWaiters(u int, cands []uint64, after int) []uint64 {
	prev := int32(-1)
	for s := t.waitHead[u]; s >= 0; {
		next := t.sNext[s]
		t.cwork.visited++
		d := int(s) / t.stride
		if t.dDone[d] || t.sVdisk[s] < 0 || t.sT[s] == t.dTmax[d] {
			// Stale: the display ended, the stream released or moved.
			if prev < 0 {
				t.waitHead[u] = next
			} else {
				t.sNext[prev] = next
			}
		} else {
			key := uint64(t.dSeq[d])<<32 | uint64(s)
			if after < 0 || key > cands[after] {
				j, _ := slices.BinarySearch(cands[after+1:], key)
				cands = slices.Insert(cands, after+1+j, key)
			}
			prev = s
		}
		s = next
	}
	if t.waitHead[u] < 0 {
		t.waitBits[u>>6] &^= 1 << uint(u&63)
	}
	return cands
}

// moveStream moves stream i of display d from its buffering disk to
// the free ideal disk, where it reads on the display's own clock and
// ends with the display: its release entry goes stale.
func (t *stripedTech) moveStream(d int32, i, ideal int) {
	e := t.eng
	si := int(d)*t.stride + i
	tmax := t.dTmax[d]
	t.setVBusy(int(t.sVdisk[si]), freeSlot)
	t.setVBusy(ideal, d)
	t.sVdisk[si] = int32(ideal)
	t.sT[si] = tmax
	e.win.Coalescings++
	t.cwork.moves++
	if e.tracer != nil {
		e.emit(EvCoalesce, int(t.dObject[d]), int(t.dStation[d]), fmt.Sprintf("fragment %d", i))
	}
}
