package sched

import (
	"math/bits"
	"slices"
)

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

	// live lists the non-empty FIFOs, in no particular order, each with
	// the pair it holds requests of; a FIFO's pos is its place in it.
	// The probe walks live, not fifos, and reads a FIFO only for its
	// head when its window is free.
	live []liveFIFO

	// dirty marks the FIFOs out of step with the queue; the next indexed
	// scan rebuilds them from e.queue first.
	dirty bool
}

// liveFIFO is an entry of the live list: a non-empty FIFO's id and the
// (first disk, degree) pair it holds requests of, packed so the probe's
// window test reads nothing else.
type liveFIFO struct {
	id, first, degree int32
}

type readyFIFO struct {
	first, degree int32 // the pair the FIFO holds requests of
	head, tail    int32 // stations, -1 when empty
	sameFirst     int32 // next FIFO of the same first disk, -1 at the end
	pos           int32 // place in live, -1 when empty

	// The refusal lease (leaseHeld): while freeEpoch is epoch, Algorithm
	// 1's span count refuses every entry of the FIFO before interval
	// until.  An end past the int32 range wraps below the clock and
	// never holds.
	epoch uint32
	until int32
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
		x.live = append(x.live, liveFIFO{id: id, first: q.first, degree: q.degree})
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
	x.fifos[last.id].pos = q.pos
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
	skipped int // indexed probes skipped: no window could be free
	leased  int // of prefix: entries a held refusal lease answered
}

// seqSpan bounds nextSeq − seq[queue head] while the ready index is
// clean: the distances the probe packs above a 32-bit FIFO id.
const seqSpan = 1 << 32

// rebuildIndex relinks every ready queued request and renumbers the
// queue from 0, walking it.
func (t *stripedTech) rebuildIndex() {
	x := &t.idx
	for _, l := range x.live {
		f := &x.fifos[l.id]
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
	if t.freeEpoch < t.epochSeen {
		t.idx.dropLeases() // wrapped: an old lease could name the epoch again
	}
	t.epochSeen = t.freeEpoch
	if e.queue.n > 0 && t.cfg.D-t.busy >= t.minDegree {
		if t.idx.dirty {
			t.rebuildIndex()
		}
		if t.freeRun == runUnknown {
			t.resolveFreeRun()
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
//
// While every disk is up, an entry whose degree fits the free disks and
// whose FIFO holds a refusal lease, or gets one now (renewLease), is
// refused without the per-entry path: its window is busy and
// tryFragmented would spend one attempt on a walk that the span count
// (refusalHorizon) proves vdisk.WalkOrbits refuses, so the entry spends
// the attempt and nothing else.
func (t *stripedTech) admitPrefix(fragBudget *int) int32 {
	e := t.eng
	q := &e.queue
	s := q.head
	for s >= 0 && *fragBudget > 0 && t.cfg.D-t.busy >= t.minDegree {
		next := q.node[s].next
		t.work.touched++
		t.work.prefix++
		if id := t.fifo[q.node[s].obj]; id >= 0 {
			f := &t.idx.fifos[id]
			refused := false
			if e.downCount == 0 && t.cfg.D-t.busy >= int(f.degree) {
				if refused = t.leaseHeld(f); refused {
					t.work.leased++
				} else {
					refused = t.renewLease(f)
				}
			}
			if refused {
				*fragBudget--
			} else if t.admitEntry(s, id, fragBudget) == entryAdmitted {
				t.idx.remove(s, id)
				q.unlink(s)
			}
		}
		s = next
	}
	return s
}

// leaseHeld reports whether FIFO f's refusal lease holds this interval:
// no virtual disk was freed since it was proved, and it has not run
// out.
func (t *stripedTech) leaseHeld(f *readyFIFO) bool {
	return f.epoch == t.freeEpoch && t.eng.now < int(f.until)
}

// renewLease proves FIFO f's refusal horizon now (refusalHorizon) and
// stores it as the FIFO's lease.  It reports whether the span count
// refuses the FIFO's entries in this interval.
func (t *stripedTech) renewLease(f *readyFIFO) bool {
	d, m := t.cfg.D, int(f.degree)
	j := refusalHorizon(t.freeBits, d, t.cfg.K%d, t.vdiskOf(int(f.first)), t.cfg.maxStartup(m), m)
	if j == 0 {
		return false
	}
	f.epoch, f.until = t.freeEpoch, int32(t.eng.now+j)
	return true
}

// dropLeases ends every FIFO's refusal lease.
func (x *readyIndex) dropLeases() {
	for i := range x.fifos {
		x.fifos[i].until = 0
	}
}

// refusalHorizon is Algorithm 1's span count.  Every position
// vdisk.WalkOrbits can pick for a display of degree m whose virtual
// base is base lies in the circular span [lo, lo + n), where
// lo = base − maxT·step, step = K mod d and n = maxT·step + m.  When
// that span has at most d positions and fewer than m of them are free,
// some stream must fail, so the walk refuses the display.
//
// It returns for how many intervals from now on, with no virtual disk
// freed, the span count refuses the display: 0 when it does not refuse
// now.  The base moves down by step each interval, so the spans of
// intervals now … now+J−1 lie in [lo − (J−1)·step, lo + n).  A span
// inside a stretch below lo + n with fewer than m free positions is
// refused, and freeing nothing keeps it so.  The count finds the m-th
// free position p below lo + n, so every span starting above p is
// refused; J is kept to spans whose union fits in d positions.  With
// step 0 the span never moves and any horizon is exact: it is d.  A
// span longer than d, or a maxT outside [0, d), gets none: it is left
// to the walk, as are the spans of degraded intervals, where admitPrefix
// holds no lease.
func refusalHorizon(free []uint64, d, step, base, maxT, m int) int {
	if maxT < 0 || maxT >= d {
		return 0
	}
	n := maxT*step + m
	if n > d {
		return 0
	}
	top := base + m - 1 // lo + n − 1
	if top >= d {
		top -= d
	}
	depth := freeDepth(free, d, top, m)
	if depth < n {
		return 0
	}
	if step == 0 {
		return d
	}
	return (depth-n)/step + 1
}

// freeDepth returns how far below top, walking down circularly, the
// m-th set bit of the d-bit set free lies (0 when it is top itself),
// or d when free holds fewer than m set bits.
func freeDepth(free []uint64, d, top, m int) int {
	c, p := countDown(free, top, 0, m)
	if c == m {
		return top - p
	}
	if c2, p := countDown(free, d-1, top+1, m-c); c+c2 == m {
		return top + d - p
	}
	return d
}

// countDown counts the set bits of free in positions hi down to lo,
// word by word, until it has need ≥ 1 of them.  It returns the count
// and, when that is need, the position of the need-th.
func countDown(free []uint64, hi, lo, need int) (c, p int) {
	for hi >= lo {
		start := hi &^ 63
		w := free[hi>>6] & (^uint64(0) >> uint(63-hi&63))
		if start < lo {
			w &= ^uint64(0) << uint(lo-start)
		}
		if k := bits.OnesCount64(w); c+k < need {
			c += k
			hi = start - 1
			continue
		}
		for ; c < need-1; c++ {
			w &^= 1 << uint(63-bits.LeadingZeros64(w))
		}
		return need, start + 63 - bits.LeadingZeros64(w)
	}
	return c, -1
}

// admitIndexed probes, in queue order, the head of every non-empty FIFO
// whose contiguous window is free and fits the farm, through the same
// per-entry path the full scan uses.  Only those heads can start: the
// fragmented fallback is spent or disabled, a busy window stays busy
// for the rest of the scan, and an admission from a FIFO takes the
// virtual disk every later entry of the same first disk needs.  A
// window is minDegree or more consecutive virtual disks, so while the
// farm holds no such run of free disks (freeRun) no head can start and
// the probe returns before the walk.  A candidate's key is its head's
// distance from the queue head in sequence numbers, below seqSpan on a
// clean index, over its FIFO id: one word, put in order by sortKeys.
func (t *stripedTech) admitIndexed(fragBudget *int) {
	if t.freeRun == runUnknown {
		t.resolveFreeRun()
	}
	if t.freeRun == runAbsent {
		t.work.skipped++
		return
	}
	q := &t.eng.queue
	x := &t.idx
	free := t.cfg.D - t.busy
	base := x.seq[q.head]
	cands := t.cands[:0]
	for _, l := range x.live {
		if m := int(l.degree); m <= free && t.windowFree(int(l.first), m) {
			cands = append(cands, (x.seq[x.fifos[l.id].head]-base)<<32|uint64(l.id))
		}
	}
	t.work.fifos += len(x.live)
	t.work.indexed++
	t.work.windows += len(cands)
	cands, t.spare = sortKeys(cands, t.spare)
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

// runState caches whether the free bitset holds minDegree consecutive
// free virtual disks: unknown until resolveFreeRun resolves it, then
// absent or present until setVBusy frees a disk (absent) or takes one
// (present).  Absent and present are single bits, so setVBusy forgets
// one by clearing its bit, without a branch.
type runState uint8

const (
	runUnknown runState = 0
	runAbsent  runState = 1
	runPresent runState = 2
)

// resolveFreeRun sets freeRun from the free bitset.  admit calls it
// before the staggered prefix, whose contiguous tests (tryAdmit) it
// also spares while the run is absent, and admitIndexed again when the
// prefix's admissions left it unknown.
func (t *stripedTech) resolveFreeRun() {
	t.freeRun = runAbsent
	if hasFreeRun(t.freeBits, t.cfg.D, t.minDegree) {
		t.freeRun = runPresent
	}
}

// hasFreeRun reports whether the d-bit set free (bit v in word v/64)
// holds m consecutive set bits circularly, bit d−1 followed by bit 0.
// It needs 1 ≤ m ≤ d and the bits from d on clear.  A run lies inside
// one word, or is the leading ones of a word, the full words after it
// and the trailing ones of the next, or wraps from the last word's
// leading ones into the first words.
func hasFreeRun(free []uint64, d, m int) bool {
	run := 0   // set bits ending at the top of the words so far
	head := -1 // set bits from bit 0 up to the first clear one, -1 before it
	for w, word := range free {
		width := min(64, d-w<<6)
		low := bits.TrailingZeros64(^word)
		if low >= width {
			run += width
			continue
		}
		if head < 0 {
			head = run + low
		}
		if run+low >= m || m <= 64 && runInWord(word, m) {
			return true
		}
		run = bits.LeadingZeros64(^(word << uint(64-width)))
	}
	if head < 0 {
		return d >= m // every bit set
	}
	return run+head >= m
}

// runInWord reports whether x holds m ≤ 64 consecutive set bits.
func runInWord(x uint64, m int) bool {
	// Bit i of x stays set while bits i … i+k−1 all are; k doubles.
	for k := 1; k < m; {
		s := min(k, m-k)
		x &= x >> uint(s)
		k += s
	}
	return x != 0
}

// radixMin is the key count from which sortKeys radix-sorts; below it
// slices.Sort is faster.
const radixMin = 64

// sortKeys sorts keys whose high 32 bits are distinct into the order
// slices.Sort gives.  From radixMin keys on it runs an LSD byte radix
// over the high 32 bits, one pass per byte their largest value needs,
// moving the keys between keys and spare.  It returns the sorted keys
// and the other buffer, to pass as spare next time.
func sortKeys(keys, spare []uint64) (sorted, rest []uint64) {
	n := len(keys)
	if n < radixMin {
		slices.Sort(keys)
		return keys, spare
	}
	var high uint64
	for _, k := range keys {
		high |= k
	}
	spare = slices.Grow(spare[:0], n)[:n]
	for shift := uint(32); shift < 64 && high>>shift != 0; shift += 8 {
		var at [256]int
		for _, k := range keys {
			at[byte(k>>shift)]++
		}
		sum := 0
		for b, c := range at {
			at[b] = sum
			sum += c
		}
		for _, k := range keys {
			b := byte(k >> shift)
			spare[at[b]] = k
			at[b]++
		}
		keys, spare = spare, keys
	}
	return keys, spare
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
