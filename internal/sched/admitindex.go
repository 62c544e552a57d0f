package sched

import (
	"math"
	"slices"
)

// This file is the striped family's event-driven admission (DESIGN.md
// §8, "Event-driven admission"): an interval's scan costs
// O(admissions + new arrivals + staggered prefix + free windows)
// instead of O(queue length), plus one queue walk while a disk is
// down.  e.queue stays the one canonical queue; the index below only
// finds the entries of it that can start.

// readyIndex links the stations whose queued request is ready (object
// resident and materialized) into FIFOs keyed by the object's first
// disk and degree, in queue-sequence order.  Every queued request
// belongs to exactly one station, so the links are per station.  Only
// (first disk, degree) pairs that have held a ready object get a FIFO,
// so the table grows with the distinct first disks in use, not with D.
type readyIndex struct {
	next    []int32 // station -> next station in its FIFO, -1 at the tail
	seq     []int32 // station -> sequence number of its queued request
	nextSeq int32

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
		seq:     make([]int32, stations),
		byFirst: make([]int32, disks),
	}
	for i := range x.byFirst {
		x.byFirst[i] = -1
	}
	return x
}

// stamp gives a newly queued request of station s the next sequence
// number.  Sequence numbers rise along e.queue, which is what lets a
// FIFO head be found in the queue by binary search; when the counter
// runs out the index is marked dirty, and the rebuild renumbers.
func (x *readyIndex) stamp(s int) {
	x.seq[s] = x.nextSeq
	x.nextSeq++
	if x.nextSeq == math.MaxInt32 {
		x.dirty = true
	}
}

// fifoOf returns the FIFO of (first disk, degree), creating it on first
// use.  It runs on every ready enqueue.
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

// fifoOfObject returns the FIFO a ready object's requests belong in.
func (t *stripedTech) fifoOfObject(obj int) int32 {
	first, _ := t.store.FirstDisk(obj) // ready ⇒ resident
	return t.idx.fifoOf(first, t.cfg.Degree(obj))
}

// rebuildIndex relinks every ready queued request from e.queue in
// queue order and renumbers the sequence from zero.
func (t *stripedTech) rebuildIndex() {
	x := &t.idx
	for _, id := range x.live {
		q := &x.fifos[id]
		q.head, q.tail, q.pos = -1, -1, -1
	}
	x.live = x.live[:0]
	q := t.eng.queue
	for i, r := range q {
		x.seq[r.station] = int32(i)
		if t.ready[r.object] {
			x.push(int32(r.station), t.fifoOfObject(r.object))
		}
	}
	x.nextSeq = int32(len(q))
	x.dirty = false
	t.work.touched += len(q)
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
	if len(e.queue) > 0 && t.cfg.D-t.busy >= t.minDegree {
		t.admitReady()
	}
	t.lastLen = len(e.queue)
	t.rejectUnplayable()
}

// admitReady runs the staggered prefix and the indexed probe and drops
// the admitted entries from the queue.
func (t *stripedTech) admitReady() {
	e := t.eng
	if t.idx.dirty {
		t.rebuildIndex()
	}
	admitted := t.admitPos[:0]
	fragBudget := fragmentedAttemptsPerInterval
	from := 0
	if t.staggered {
		admitted, from = t.admitPrefix(admitted, &fragBudget)
	}
	if from < len(e.queue) && t.cfg.D-t.busy >= t.minDegree {
		admitted = t.admitIndexed(admitted, &fragBudget)
	}
	if len(admitted) > 0 {
		e.queue = removePositions(e.queue, admitted)
	}
	t.admitPos = admitted[:0]
}

// rejectUnplayable refuses, in queue order, every ready queued request
// whose object's stride orbit crosses a down disk: the requests the
// full scan defers past its queue swap.  Nothing refuses while every
// disk is up, so a healthy interval skips the walk.
func (t *stripedTech) rejectUnplayable() {
	e := t.eng
	if e.downCount == 0 {
		return
	}
	kept := e.queue[:0]
	for _, r := range e.queue {
		t.work.touched++
		if t.ready[r.object] && !t.playable(r.object) {
			t.rejectBuf = append(t.rejectBuf, r)
			continue
		}
		kept = append(kept, r)
	}
	if len(t.rejectBuf) == 0 {
		return
	}
	e.queue = kept
	t.lastLen, t.idx.dirty = len(kept), true
	t.flushRejects()
}

// requestCold forwards cold queued requests to the tertiary manager.
// A cold object stays Pending from its first Request until it turns
// ready or the device drops it (abortStaging, a starved placeFailed,
// Kill's Reset), so re-requesting it every interval is a no-op: only
// the entries queued since the last scan need a Request, or every cold
// entry after a drop.  Either way the calls run in queue order, so the
// device sees the order a full scan would give it.
func (t *stripedTech) requestCold() {
	e := t.eng
	from := t.lastLen
	if t.dropped {
		from, t.dropped = 0, false
	}
	for _, r := range e.queue[from:] {
		t.work.touched++
		if !t.ready[r.object] {
			e.tman.Request(r.object)
		}
	}
}

// admitPrefix runs the per-entry path from the queue head while
// Algorithm 1's per-interval budget lasts: the fragmented fallback can
// start any ready entry whose contiguous window is busy, so those
// entries cannot be found through the index.  It stops when the budget
// is spent, the farm cannot fit the smallest degree, or the queue
// ends, and returns the position it stopped at.
func (t *stripedTech) admitPrefix(admitted []int32, fragBudget *int) ([]int32, int) {
	e := t.eng
	i := 0
	for ; i < len(e.queue) && *fragBudget > 0 && t.cfg.D-t.busy >= t.minDegree; i++ {
		r := e.queue[i]
		t.work.touched++
		t.work.prefix++
		if !t.ready[r.object] {
			continue // its tertiary request went out in requestCold
		}
		if t.admitEntry(r, fragBudget) == entryAdmitted {
			t.idx.remove(int32(r.station), t.fifoOfObject(r.object))
			admitted = append(admitted, int32(i))
		}
	}
	return admitted, i
}

// admitIndexed probes, in queue order, the head of every non-empty FIFO
// whose contiguous window is free and fits the farm, through the same
// per-entry path the full scan uses.  Only those heads can start: the
// fragmented fallback is spent or disabled, a busy window stays busy
// for the rest of the scan, and an admission from a FIFO takes the
// virtual disk every later entry of the same first disk needs.
func (t *stripedTech) admitIndexed(admitted []int32, fragBudget *int) []int32 {
	e := t.eng
	x := &t.idx
	free := t.cfg.D - t.busy
	cands := t.cands[:0]
	for _, id := range x.live {
		q := &x.fifos[id]
		if m := int(q.degree); m <= free && t.windowFree(int(q.first), m) {
			cands = append(cands, uint64(x.seq[q.head])<<32|uint64(id))
		}
	}
	t.work.fifos += len(x.live)
	t.work.indexed++
	t.work.windows += len(cands)
	slices.Sort(cands)
	lo := 0
	for _, c := range cands {
		id := int32(uint32(c))
		i := t.queuePos(int32(c>>32), lo)
		t.work.touched++
		if t.admitEntry(e.queue[i], fragBudget) == entryAdmitted {
			x.popHead(id)
			admitted = append(admitted, int32(i))
		}
		lo = i + 1
	}
	t.cands = cands[:0]
	return admitted
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

// queuePos returns the position in e.queue[lo:] of the request with
// sequence number seq, by binary search on the rising sequence.  The
// sequence rises by at least one per entry, so the request lies at
// most seq − seq(q[lo]) entries past lo.
func (t *stripedTech) queuePos(seq int32, lo int) int {
	q := t.eng.queue
	hi := min(len(q), lo+int(seq-t.idx.seq[q[lo].station])+1)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.idx.seq[q[mid].station] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// removePositions deletes the entries at the ascending positions pos
// from q in one order-preserving pass of segment copies.
func removePositions(q []request, pos []int32) []request {
	w := int(pos[0])
	for j, p := range pos {
		end := len(q)
		if j+1 < len(pos) {
			end = int(pos[j+1])
		}
		w += copy(q[w:], q[p+1:end])
	}
	return q[:w]
}
