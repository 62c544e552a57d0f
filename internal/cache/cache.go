// Package cache implements the memory tier in front of the disk
// techniques: a popularity-aware prefix cache that pins the first P
// subobjects of hot objects in a fixed RAM budget so admission can
// start playback instantly while the disks stage the tail, plus the
// multicast/batching registries that let concurrent requests for the
// same object share one in-flight disk stream.
//
// The admission policy follows the interval-caching line of the
// multicast-prefix VoD literature (Jayarekha & Nair): a reference may
// displace colder prefixes only when the newcomer's decayed request
// rate beats the victim's, so a one-time reference displaces only a
// resident whose decayed rate has fallen below one fresh reference.
//
// The tier itself is pure bookkeeping — it never touches engine state.
// The engine consults it from its single interval loop, so no method
// here needs synchronization.
package cache

import (
	"fmt"
	"math"
)

// PrefixSubobjects is how many leading subobjects of an object the
// cache pins; the engine clamps it to the object length.
const PrefixSubobjects = 4

// Spec configures the memory tier.  The zero value (and nil) disable
// it entirely: the engine then compiles the cache hooks down to one
// nil check, keeping the disk-only path byte-identical to the golden
// dumps.
type Spec struct {
	// BudgetBytes is the fixed RAM budget for pinned prefixes; 0
	// disables the prefix cache (batching may still be on).
	BudgetBytes int64
	// BatchWindow is the multicast window in intervals: requests for
	// the same object within this window of an in-flight or queued
	// stream attach to it as followers.  0 disables batching.
	BatchWindow int
}

// Enabled reports whether the spec turns the tier on at all.
func (s *Spec) Enabled() bool {
	return s != nil && (s.BudgetBytes > 0 || s.BatchWindow > 0)
}

// Validate reports whether the spec is runnable.  A nil spec is valid
// (tier disabled).
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	switch {
	case s.BudgetBytes < 0:
		return fmt.Errorf("cache: budget must be non-negative")
	case s.BatchWindow < 0:
		return fmt.Errorf("cache: batch window must be non-negative")
	}
	return nil
}

// Pending is one request batched behind a queued leader request,
// waiting to board the leader's stream at admission.
type Pending struct {
	Station int32
	Arrived int32 // interval the request arrived, for latency accounting
}

// Tier is the memory tier's state: the resident prefix set under the
// RAM budget, the per-object popularity scores that choose what it
// evicts, and the leader/follower/pending registries for multicast
// stream sharing.  All methods run on the engine's interval goroutine.
//
// Replacement is popularity-weighted, by forward decay (Cormode,
// Shkapenyuk, Srivastava and Xu, ICDE 2009).  A reference at interval
// t adds 2^((t−L)/h) to the object's score S, against a landmark
// interval L and a half-life h of one display length, so
// S·2^(−(now−L)/h) is the object's reference count decayed to now.
// Every score decays by that same factor, so comparing S values
// compares every object at one instant: the victim is the coldest
// resident by today's decayed request rate, and a newcomer must
// out-score it to displace it.  This is the interval-caching admission
// of Jayarekha & Nair: bursty one-time traffic decays away instead of
// flushing the Zipf head.  One reference's weight is computed once per
// interval.  The residents live in a binary min-heap on (S, id), ties
// on the lower id; a reference only raises S, so touching a resident
// sifts it down, and the victim is the top.
//
// Once (now−L)/h passes rescaleAt, every score is scaled down by an
// exact power of two (math.Ldexp) and L advanced to match.  That keeps
// every comparison except where a score underflows: scores of objects
// left unreferenced for about a thousand half-lives lose precision and
// then reach zero, where they tie, and a tie goes to the lower id as
// any tie on S does.
//
// Only objects with a live leader, a follower or a pending request
// have registry state, a small share of the catalog at any instant, so
// the registries live in a slot table reached through a per-object
// slot index.  A slot is claimed by the first registration and
// released, keeping its slice backings for the next object, once its
// leader has ended and no follower or pending request is left in it.
type Tier struct {
	spec        Spec
	prefixLen   int
	degrees     []int // object -> degree of declustering; nil: every object has degree m
	m           int
	prefixBytes []int64 // degree -> pinned prefix size in bytes
	pos         []int32 // object -> index into heap, -1 when not resident
	heap        []int32 // resident ids, a binary min-heap on (score, id)
	used        int64

	score    []float64 // object -> forward-decayed score S
	landmark float64   // L, in intervals
	halfLife float64
	wAt      int     // interval w was computed for, -1 = none
	w        float64 // one reference's weight at wAt: 2^((wAt−L)/h)

	// changed, when set, is called with each object whose residency
	// just flipped (a pin, an eviction, a Flush).
	changed func(obj int)

	slot  []int32    // object -> index into slots, -1 without registry state
	slots []registry // claimed and released slots
	free  []int32    // released slots, reused last-in first-out
}

// rescaleAt is how many half-lives past the landmark a reference's
// weight may reach before the scores are rescaled: 2^512 leaves ample
// float64 headroom for sums of many such weights.
const rescaleAt = 512

// registry is one object's multicast state: the newest in-flight disk
// stream (the leader), the stations sharing it, and the requests
// batched behind a queued leader request.
type registry struct {
	station, start, end, tmax int32 // the leader; end is exclusive, 0 = no leader

	followers []int32   // stations sharing the leader stream
	pending   []Pending // requests batched behind a queued leader
}

// NewTier builds the tier for a catalog of objects.  prefixLen is the
// effective pinned prefix in subobjects (already clamped by the
// caller).  degrees gives each object's degree of declustering (nil:
// every object has degree m), and bytesOf the pinned prefix footprint
// in bytes of an object of a given degree.  halfLife tunes the
// popularity score's decay (typically one display length in
// intervals).
func NewTier(spec *Spec, objects, prefixLen int, degrees []int, m int, bytesOf func(degree int) int64, halfLife float64) *Tier {
	if halfLife <= 0 {
		halfLife = 1
	}
	maxDegree := m
	for _, d := range degrees {
		maxDegree = max(maxDegree, d)
	}
	t := &Tier{
		spec:        *spec,
		prefixLen:   prefixLen,
		degrees:     degrees,
		m:           m,
		prefixBytes: make([]int64, maxDegree+1),
		pos:         make([]int32, objects),
		score:       make([]float64, objects),
		halfLife:    halfLife,
		wAt:         -1,
		slot:        make([]int32, objects),
	}
	for d := range t.prefixBytes {
		t.prefixBytes[d] = bytesOf(d)
	}
	for id := range t.pos {
		t.pos[id] = -1
		t.slot[id] = -1
	}
	return t
}

// PrefixLen returns the pinned prefix length in subobjects.
func (t *Tier) PrefixLen() int { return t.prefixLen }

// Resident reports whether obj's prefix is pinned right now.
func (t *Tier) Resident(obj int) bool { return t.pos[obj] >= 0 }

// Bytes returns obj's prefix footprint.
func (t *Tier) Bytes(obj int) int64 {
	if t.degrees == nil {
		return t.prefixBytes[t.m]
	}
	return t.prefixBytes[t.degrees[obj]]
}

// Used returns the bytes currently pinned.
func (t *Tier) Used() int64 { return t.used }

// OnResidencyChange registers fn to be called with each object whose
// residency flips from now on: when Reference pins or evicts its
// prefix, and when Flush unpins it.  fn runs after the flip.
func (t *Tier) OnResidencyChange(fn func(obj int)) { t.changed = fn }

// Reference records one request for obj at the given interval and
// runs the interval-caching admission: the reference warms obj's
// score, and the prefix is pinned if it fits the budget — evicting
// colder prefixes only while obj out-scores each victim, so a
// one-timer displaces only a resident whose decayed score is below one
// fresh reference.
func (t *Tier) Reference(obj, now int) {
	if now != t.wAt {
		t.weigh(now)
	}
	t.score[obj] += t.w
	if t.spec.BudgetBytes <= 0 {
		return
	}
	if i := t.pos[obj]; i >= 0 {
		t.down(int(i))
		return
	}
	need := t.Bytes(obj)
	if need > t.spec.BudgetBytes {
		return
	}
	for t.used+need > t.spec.BudgetBytes {
		victim := t.victim()
		if victim < 0 || t.score[obj] <= t.score[victim] {
			return
		}
		t.evict()
	}
	t.heap = append(t.heap, int32(obj))
	t.up(len(t.heap) - 1)
	t.used += need
	if t.changed != nil {
		t.changed(obj)
	}
}

// weigh sets w to one reference's weight at interval now.  Past
// rescaleAt half-lives from the landmark it first scales every score
// by 2^−k, for k the whole half-lives elapsed, and advances the
// landmark by k half-lives; scores that underflow may tie, so the heap
// is rebuilt.
func (t *Tier) weigh(now int) {
	x := (float64(now) - t.landmark) / t.halfLife
	if x > rescaleAt {
		k := math.Floor(x)
		for id, s := range t.score {
			t.score[id] = math.Ldexp(s, -int(k))
		}
		t.landmark += k * t.halfLife
		x = (float64(now) - t.landmark) / t.halfLife
		for i := len(t.heap)/2 - 1; i >= 0; i-- {
			t.down(i)
		}
	}
	t.wAt, t.w = now, math.Exp2(x)
}

// victim returns the coldest resident (ties on the lowest id), or -1
// when nothing is resident.
func (t *Tier) victim() int {
	if len(t.heap) == 0 {
		return -1
	}
	return int(t.heap[0])
}

// evict unpins the victim, the heap's top.
func (t *Tier) evict() {
	obj := t.heap[0]
	last := len(t.heap) - 1
	t.heap[0] = t.heap[last]
	t.heap = t.heap[:last]
	t.pos[obj] = -1
	if last > 0 {
		t.down(0)
	}
	t.used -= t.Bytes(int(obj))
	if t.changed != nil {
		t.changed(int(obj))
	}
}

// before orders the heap: the lower score first, ties on the lower id.
func (t *Tier) before(a, b int32) bool {
	sa, sb := t.score[a], t.score[b]
	return sa < sb || sa == sb && a < b
}

// up moves the heap entry at i toward the root to its place.
func (t *Tier) up(i int) {
	h := t.heap
	id := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !t.before(id, h[p]) {
			break
		}
		h[i] = h[p]
		t.pos[h[i]] = int32(i)
		i = p
	}
	h[i] = id
	t.pos[id] = int32(i)
}

// down moves the heap entry at i toward the leaves to its place.
func (t *Tier) down(i int) {
	h := t.heap
	id := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && t.before(h[r], h[c]) {
			c = r
		}
		if !t.before(h[c], id) {
			break
		}
		h[i] = h[c]
		t.pos[h[i]] = int32(i)
		i = c
	}
	h[i] = id
	t.pos[id] = int32(i)
}

// Check reports the first broken invariant of the resident set, or
// nil: the heap is ordered on (score, id), the position table names
// exactly the heap's residents at their heap indices, and Used is the
// sum of their prefix bytes.  It costs O(objects); tests run it.
func (t *Tier) Check() error {
	var used int64
	for i, id := range t.heap {
		if t.pos[id] != int32(i) {
			return fmt.Errorf("cache: heap entry %d is object %d, whose position is %d", i, id, t.pos[id])
		}
		if p := (i - 1) / 2; i > 0 && t.before(id, t.heap[p]) {
			return fmt.Errorf("cache: object %d (score %g) sits below object %d (score %g)", id, t.score[id], t.heap[p], t.score[t.heap[p]])
		}
		used += t.Bytes(int(id))
	}
	for id, i := range t.pos {
		if i >= int32(len(t.heap)) || i >= 0 && t.heap[i] != int32(id) {
			return fmt.Errorf("cache: object %d has position %d in a heap of %d", id, i, len(t.heap))
		}
	}
	if used != t.used {
		return fmt.Errorf("cache: %d bytes used, the residents hold %d", t.used, used)
	}
	return nil
}

// claim returns obj's registry, claiming a slot for it (the most
// recently released one first) when it has none.  The pointer is good
// until the next claim.
func (t *Tier) claim(obj int) *registry {
	i := t.slot[obj]
	if i < 0 {
		if n := len(t.free); n > 0 {
			i = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			i = int32(len(t.slots))
			t.slots = append(t.slots, registry{})
		}
		t.slot[obj] = i
	}
	return &t.slots[i]
}

// settle releases obj's slot r once its leader has ended and no
// follower or pending request is left in it; the slot keeps its slice
// backings for the next object that claims it.
func (t *Tier) settle(obj int, r *registry) {
	if r.end == 0 && len(r.followers) == 0 && len(r.pending) == 0 {
		t.free = append(t.free, t.slot[obj])
		t.slot[obj] = -1
	}
}

// AttachGap reports whether a request for obj arriving now can attach
// to the in-flight leader stream as a follower, and the gap (in
// intervals) it trails the leader by.  Attaching requires a live
// leader whose streams have fully started (gap at least the leader's
// startup Tmax), a gap inside both the batch window and the pinned
// prefix (the RAM prefix is what the follower catches up from), and
// the prefix to actually be resident.
func (t *Tier) AttachGap(obj, now, window int) (int, bool) {
	i := t.slot[obj]
	if i < 0 || int(t.slots[i].end) <= now {
		return 0, false
	}
	r := &t.slots[i]
	gap := now - int(r.start)
	if gap < 1 || gap < int(r.tmax) || gap > window || gap > t.prefixLen || t.pos[obj] < 0 {
		return 0, false
	}
	return gap, true
}

// SetLeader registers the disk stream admitted for obj at start as the
// object's leader, ending (exclusive) at end, which must be positive.
// Any followers of an older leader are dropped from the registry —
// their displays still complete on their own clocks, they just lose
// detach-on-abort coverage for the superseded stream.
func (t *Tier) SetLeader(obj int, station int32, start, end, tmax int) {
	r := t.claim(obj)
	r.station, r.start, r.end, r.tmax = station, int32(start), int32(end), int32(tmax)
	r.followers = r.followers[:0]
}

// EndLeader retires obj's leader registration at the interval its
// stream ends, end, and releases the object's slot if nothing else is
// left in it.  The engine calls it at that interval; it is a no-op
// when the leader was detached or superseded by one ending elsewhen.
func (t *Tier) EndLeader(obj, end int) {
	i := t.slot[obj]
	if i < 0 || int(t.slots[i].end) != end {
		return
	}
	r := &t.slots[i]
	r.end = 0
	t.settle(obj, r)
}

// AddFollower records station as sharing obj's leader stream.
func (t *Tier) AddFollower(obj int, station int32) {
	r := t.claim(obj)
	r.followers = append(r.followers, station)
}

// RemoveFollower drops a completed follower from obj's share list.
// joined is the interval the follower joined the list at, or any later
// one.  Since SetLeader is called at the interval its leader starts
// and empties the list, a list whose leader started after joined no
// longer holds the follower, and the call returns without a scan.
func (t *Tier) RemoveFollower(obj int, station int32, joined int) {
	i := t.slot[obj]
	if i < 0 || int(t.slots[i].start) > joined {
		return
	}
	r := &t.slots[i]
	fs := r.followers
	for j, s := range fs {
		if s == station {
			last := len(fs) - 1
			fs[j] = fs[last]
			r.followers = fs[:last]
			t.settle(obj, r)
			return
		}
	}
}

// DetachIfLeader clears obj's leader registration if station is the
// live leader, appending the followers that were sharing its stream to
// buf.  It reports whether a detach happened.  The caller owns buf —
// the tier's own backing is reusable immediately.
func (t *Tier) DetachIfLeader(obj int, station int32, now int, buf []int32) ([]int32, bool) {
	i := t.slot[obj]
	if i < 0 {
		return buf, false
	}
	r := &t.slots[i]
	if int(r.end) <= now || r.station != station {
		return buf, false
	}
	buf = append(buf, r.followers...)
	r.followers = r.followers[:0]
	r.end = 0
	t.settle(obj, r)
	return buf, true
}

// PendingObjects appends to buf every object id with a non-empty
// pending batch, ascending — the deterministic drain order the
// failover path uses to orphan batched requests when a whole server
// dies.  The caller owns buf.
func (t *Tier) PendingObjects(buf []int) []int {
	for obj, i := range t.slot {
		if i >= 0 && len(t.slots[i].pending) > 0 {
			buf = append(buf, obj)
		}
	}
	return buf
}

// Flush resets the tier to its built state: no residents, no leaders,
// no followers, no pending batches, no popularity scores and the
// landmark back at interval 0 — the RAM contents of a server that just
// power-cycled.
func (t *Tier) Flush() {
	for _, obj := range t.heap {
		t.pos[obj] = -1
		if t.changed != nil {
			t.changed(int(obj))
		}
	}
	t.heap = t.heap[:0]
	t.used = 0
	for obj, i := range t.slot {
		if i >= 0 {
			r := &t.slots[i]
			r.end = 0
			r.followers = r.followers[:0]
			r.pending = r.pending[:0]
			t.free = append(t.free, i)
			t.slot[obj] = -1
		}
	}
	clear(t.score)
	t.landmark, t.wAt = 0, -1
}

// AddPending batches a request behind obj's queued leader request; it
// boards the leader's stream when the leader admits.
func (t *Tier) AddPending(obj int, station, arrived int32) {
	r := t.claim(obj)
	r.pending = append(r.pending, Pending{Station: station, Arrived: arrived})
}

// TakePending drains obj's batched requests into buf and returns it.
// The caller owns buf — the tier's backing is reusable immediately.
func (t *Tier) TakePending(obj int, buf []Pending) []Pending {
	i := t.slot[obj]
	if i < 0 {
		return buf
	}
	r := &t.slots[i]
	buf = append(buf, r.pending...)
	r.pending = r.pending[:0]
	t.settle(obj, r)
	return buf
}
