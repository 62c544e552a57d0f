package sched

import "slices"

// This file is the striped family's event-driven admission (DESIGN.md
// §8, "Event-driven admission"): an interval's scan costs
// O(admissions + new arrivals + staggered prefix + free windows)
// instead of O(queue length), plus one queue walk while a disk is
// down.  e.queue is the one order of the queued requests; the index
// below only finds the entries of it that can start.

// readyIndex links the stations whose queued request is ready (object
// resident and materialized) into FIFOs keyed by the object's first
// disk and degree, in queue order.  Every queued request
// belongs to exactly one station, so the links are per station.  Only
// (first disk, degree) pairs that have held a ready object get a FIFO,
// so the table grows with the distinct first disks in use, not with D.
type readyIndex struct {
	next []int32 // station -> next station in its FIFO, -1 at the tail

	// seq numbers the queued requests in queue order (onEnqueue): the
	// key that puts the probed FIFO heads in queue order.  The probe
	// packs a head's distance from the queue head's number into the
	// high 32 bits of its candidate key, so while the index is clean
	// nextSeq − seq[queue head] stays below seqSpan: an enqueue that
	// would reach it marks the index dirty, and the rebuild renumbers.
	seq     []uint64 // station -> sequence number of its queued request
	nextSeq uint64

	// fifos is append-only, so a FIFO id (its position) never changes.
	// byFirst heads, per physical disk, the chain of that disk's FIFOs
	// (one per degree), -1 when there is none.
	fifos   []readyFIFO
	byFirst []int32

	// live lists the non-empty FIFOs, in no particular order; a FIFO's
	// pos is its place in it.  The probe walks live, not fifos.
	live []int32

	// dirty marks the FIFOs out of step with the queue; the next indexed
	// scan rebuilds them from e.queue first.
	dirty bool
}

type readyFIFO struct {
	first, degree int32 // the pair the FIFO holds requests of
	head, tail    int32 // stations, -1 when empty
	sameFirst     int32 // next FIFO of the same first disk, -1 at the end
	pos           int32 // place in live, -1 when empty
}

// newReadyIndex sizes the per-station links and the per-disk chain
// heads; the FIFOs come with use.
func newReadyIndex(stations, disks int) readyIndex {
	x := readyIndex{
		next:    make([]int32, stations),
		seq:     make([]uint64, stations),
		byFirst: make([]int32, disks),
	}
	for i := range x.byFirst {
		x.byFirst[i] = -1
	}
	return x
}

// fifoOf returns the FIFO of (first disk, degree), creating it on first
// use.  It runs once per object each time the object turns ready.
func (x *readyIndex) fifoOf(first, m int) int32 {
	id := x.lookup(first, m)
	if id < 0 {
		id = int32(len(x.fifos))
		x.fifos = append(x.fifos, readyFIFO{
			first: int32(first), degree: int32(m),
			head: -1, tail: -1, sameFirst: x.byFirst[first], pos: -1,
		})
		x.byFirst[first] = id
	}
	return id
}

// lookup returns the FIFO of (first disk, degree), -1 when there is
// none.  The chain of a first disk holds one FIFO per degree its
// objects use, so the walk is usually one step.
func (x *readyIndex) lookup(first, m int) int32 {
	id := x.byFirst[first]
	for id >= 0 && x.fifos[id].degree != int32(m) {
		id = x.fifos[id].sameFirst
	}
	return id
}

// push appends station s at the tail of FIFO id; a FIFO that was empty
// joins live.
func (x *readyIndex) push(s, id int32) {
	q := &x.fifos[id]
	x.next[s] = -1
	if q.tail < 0 {
		q.head, q.pos = s, int32(len(x.live))
		x.live = append(x.live, id)
	} else {
		x.next[q.tail] = s
	}
	q.tail = s
}

// popHead unlinks the head of FIFO id; a FIFO it empties leaves live.
func (x *readyIndex) popHead(id int32) {
	q := &x.fifos[id]
	if q.head = x.next[q.head]; q.head < 0 {
		q.tail = -1
		x.unlive(q)
	}
}

// unlive swap-removes the emptied FIFO q from live.
func (x *readyIndex) unlive(q *readyFIFO) {
	last := x.live[len(x.live)-1]
	x.live[q.pos] = last
	x.fifos[last].pos = q.pos
	x.live = x.live[:len(x.live)-1]
	q.pos = -1
}

// remove unlinks station s from FIFO id.  The walk is bounded by the
// stations ahead of s, which are all earlier in the queue.
func (x *readyIndex) remove(s, id int32) {
	q := &x.fifos[id]
	if q.head == s {
		x.popHead(id)
		return
	}
	prev := q.head
	for x.next[prev] != s {
		prev = x.next[prev]
	}
	x.next[prev] = x.next[s]
	if q.tail == s {
		q.tail = prev
	}
}

// admitWork counts admission work in host-independent units, for the
// tests that bound it.
type admitWork struct {
	touched int // queue entries examined, by any scan or rebuild
	prefix  int // of touched: entries the staggered prefix walked
	windows int // FIFOs visited whose window was free
	fifos   int // FIFOs the indexed probe visited, the non-empty ones
	indexed int // indexed probes run
}

// seqSpan bounds nextSeq − seq[queue head] while the ready index is
// clean: the distances the probe packs above a 32-bit FIFO id.
const seqSpan = 1 << 32

// rebuildIndex relinks every ready queued request and renumbers the
// queue from 0, walking it.
func (t *stripedTech) rebuildIndex() {
	x := &t.idx
	for _, id := range x.live {
		f := &x.fifos[id]
		f.head, f.tail, f.pos = -1, -1, -1
	}
	x.live = x.live[:0]
	q := &t.eng.queue
	x.nextSeq = 0
	for s := q.head; s >= 0; s = q.node[s].next {
		x.seq[s] = x.nextSeq
		x.nextSeq++
		if id := t.fifo[q.node[s].obj]; id >= 0 {
			x.push(s, id)
		}
	}
	x.dirty = false
	t.work.touched += q.n
}

// admit starts every queued display whose disks are free, per §3.1's
// use of idle time intervals for new requests, routes requests for
// non-resident objects to the tertiary manager, and refuses requests
// whose objects a down disk makes unplayable (§3.2.2).  It decides the
// admissions the full queue scan (scanAdmit) would, in the same order,
// from the cold-request events and the ready index, healthy or not:
// the per-entry path never admits an unplayable request.
func (t *stripedTech) admit() {
	e := t.eng
	if t.fullScan {
		t.scanAdmit()
		return
	}
	t.requestCold()
	if e.queue.n > 0 && t.cfg.D-t.busy >= t.minDegree {
		if t.idx.dirty {
			t.rebuildIndex()
		}
		// The staggered prefix, then the indexed probe over what the
		// prefix did not reach.
		fragBudget := fragmentedAttemptsPerInterval
		rest := e.queue.head
		if t.staggered {
			rest = t.admitPrefix(&fragBudget)
		}
		if rest >= 0 && t.cfg.D-t.busy >= t.minDegree {
			t.admitIndexed(&fragBudget)
		}
	}
	t.fresh = -1
	t.rejectUnplayable()
}

// rejectUnplayable refuses, in queue order, every ready queued request
// whose object's stride orbit crosses a down disk: the requests the
// full scan defers to the end of its walk.  Nothing refuses while every
// disk is up, so a healthy interval skips the walk.
func (t *stripedTech) rejectUnplayable() {
	e := t.eng
	if e.downCount == 0 {
		return
	}
	q := &e.queue
	for s, next := q.head, int32(0); s >= 0; s = next {
		next = q.node[s].next
		t.work.touched++
		if obj := int(q.node[s].obj); t.fifo[obj] >= 0 && !t.playable(obj) {
			e.deferReject(s)
		}
	}
	if len(e.rejectBuf) == 0 {
		return
	}
	t.idx.dirty = true
	e.flushRejects()
}

// requestCold forwards cold queued requests to the tertiary manager.
// A cold object stays Pending from its first Request until it turns
// ready or the device drops it (abortStaging, a starved placeFailed,
// Kill's Reset), so re-requesting it every interval is a no-op: only
// the entries from fresh on, queued since the last scan, need a
// Request, and a drop moves fresh back to the queue head.  Either way
// the calls run in queue order, so the device sees the order a full
// scan would give it.
func (t *stripedTech) requestCold() {
	e := t.eng
	q := &e.queue
	for s := t.fresh; s >= 0; s = q.node[s].next {
		t.work.touched++
		if obj := int(q.node[s].obj); t.fifo[obj] < 0 {
			e.tman.Request(obj)
		}
	}
}

// admitPrefix runs the per-entry path from the queue head while
// Algorithm 1's per-interval budget lasts: the fragmented fallback can
// start any ready entry whose contiguous window is busy, so those
// entries cannot be found through the index.  It stops when the budget
// is spent, the farm cannot fit the smallest degree, or the queue
// ends, and returns the station it stopped at, -1 at the end.  Cold
// entries are passed over: their tertiary requests went out in
// requestCold.
func (t *stripedTech) admitPrefix(fragBudget *int) int32 {
	q := &t.eng.queue
	s := q.head
	for s >= 0 && *fragBudget > 0 && t.cfg.D-t.busy >= t.minDegree {
		next := q.node[s].next
		t.work.touched++
		t.work.prefix++
		if id := t.fifo[q.node[s].obj]; id >= 0 && t.admitEntry(s, id, fragBudget) == entryAdmitted {
			t.idx.remove(s, id)
			q.unlink(s)
		}
		s = next
	}
	return s
}

// admitIndexed probes, in queue order, the head of every non-empty FIFO
// whose contiguous window is free and fits the farm, through the same
// per-entry path the full scan uses.  Only those heads can start: the
// fragmented fallback is spent or disabled, a busy window stays busy
// for the rest of the scan, and an admission from a FIFO takes the
// virtual disk every later entry of the same first disk needs.  A
// candidate's key is its head's distance from the queue head in
// sequence numbers, below seqSpan on a clean index, over its FIFO id:
// one word, sorted as such.
func (t *stripedTech) admitIndexed(fragBudget *int) {
	q := &t.eng.queue
	x := &t.idx
	free := t.cfg.D - t.busy
	base := x.seq[q.head]
	cands := t.cands[:0]
	for _, id := range x.live {
		f := &x.fifos[id]
		if m := int(f.degree); m <= free && t.windowFree(int(f.first), m) {
			cands = append(cands, (x.seq[f.head]-base)<<32|uint64(id))
		}
	}
	t.work.fifos += len(x.live)
	t.work.indexed++
	t.work.windows += len(cands)
	slices.Sort(cands)
	for _, c := range cands {
		id := int32(uint32(c))
		s := x.fifos[id].head
		t.work.touched++
		if t.admitEntry(s, id, fragBudget) == entryAdmitted {
			x.popHead(id)
			q.unlink(s)
		}
	}
	t.cands = cands[:0]
}

// windowFree reports whether the m virtual disks of a contiguous
// admission at physical first disk `first` are all free.
func (t *stripedTech) windowFree(first, m int) bool {
	v := t.vdiskOf(first)
	for j := 0; j < m; j++ {
		if t.vbusy[v] != freeSlot {
			return false
		}
		if v++; v == t.cfg.D {
			v = 0
		}
	}
	return true
}
