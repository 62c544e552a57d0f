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
// rate beats the victim's, so one-time references never churn the hot
// set.
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
// Replacement is popularity-weighted: each reference adds one unit to
// an exponentially decayed per-object score (half-life of one display
// length), the victim is the coldest resident by decayed request rate,
// and a newcomer must out-score it to displace it.  This is the
// interval-caching admission of Jayarekha & Nair: bursty one-time
// traffic decays away instead of flushing the Zipf head.
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
	resident    []bool
	residents   []int // resident object ids, order-free (victim ties on id)
	used        int64

	score    []float64 // object -> decayed reference count
	last     []int32   // object -> interval of the last reference, -1 = never
	halfLife float64

	// changed, when set, is called with each object whose residency
	// just flipped (a pin, an eviction, a Flush).
	changed func(obj int)

	slot  []int32    // object -> index into slots, -1 without registry state
	slots []registry // claimed and released slots
	free  []int32    // released slots, reused last-in first-out
}

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
		resident:    make([]bool, objects),
		score:       make([]float64, objects),
		last:        make([]int32, objects),
		halfLife:    halfLife,
		slot:        make([]int32, objects),
	}
	for d := range t.prefixBytes {
		t.prefixBytes[d] = bytesOf(d)
	}
	for id := range t.last {
		t.last[id] = -1
		t.slot[id] = -1
	}
	return t
}

// PrefixLen returns the pinned prefix length in subobjects.
func (t *Tier) PrefixLen() int { return t.prefixLen }

// Resident reports whether obj's prefix is pinned right now.
func (t *Tier) Resident(obj int) bool { return t.resident[obj] }

// Bytes returns obj's prefix footprint.
func (t *Tier) Bytes(obj int) int64 {
	if t.degrees == nil {
		return t.prefixBytes[t.m]
	}
	return t.prefixBytes[t.degrees[obj]]
}

// Used returns the bytes currently pinned.
func (t *Tier) Used() int64 { return t.used }

// ResidentCount returns the number of pinned prefixes.
func (t *Tier) ResidentCount() int { return len(t.residents) }

// OnResidencyChange registers fn to be called with each object whose
// residency flips from now on: when Reference pins or evicts its
// prefix, and when Flush unpins it.  fn runs after the flip.
func (t *Tier) OnResidencyChange(fn func(obj int)) { t.changed = fn }

// Reference records one request for obj at the given interval and
// runs the interval-caching admission: the reference warms obj's
// score, and the prefix is pinned if it fits the budget — evicting
// colder prefixes only while obj out-scores each victim, so one-timers
// never displace the hot set.
func (t *Tier) Reference(obj, now int) {
	t.touched(obj, now)
	if t.spec.BudgetBytes <= 0 || t.resident[obj] {
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
		t.evict(victim)
	}
	t.resident[obj] = true
	t.residents = append(t.residents, obj)
	t.used += need
	if t.changed != nil {
		t.changed(obj)
	}
}

// touched adds one reference at interval now to obj's decayed score.
func (t *Tier) touched(obj, now int) {
	if t.last[obj] < 0 {
		t.score[obj] = 1
	} else {
		gap := float64(now - int(t.last[obj]))
		t.score[obj] = 1 + t.score[obj]*math.Exp2(-gap/t.halfLife)
	}
	t.last[obj] = int32(now)
}

// victim returns the coldest resident (ties on the lowest id), or -1
// when nothing is resident.
func (t *Tier) victim() int {
	victim, best := -1, math.Inf(1)
	for _, id := range t.residents {
		s := t.score[id]
		if s < best || (s == best && (victim < 0 || id < victim)) {
			victim, best = id, s
		}
	}
	return victim
}

func (t *Tier) evict(obj int) {
	t.resident[obj] = false
	for i, id := range t.residents {
		if id == obj {
			last := len(t.residents) - 1
			t.residents[i] = t.residents[last]
			t.residents = t.residents[:last]
			break
		}
	}
	t.used -= t.Bytes(obj)
	if t.changed != nil {
		t.changed(obj)
	}
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
	if gap < 1 || gap < int(r.tmax) || gap > window || gap > t.prefixLen || !t.resident[obj] {
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
func (t *Tier) RemoveFollower(obj int, station int32) {
	i := t.slot[obj]
	if i < 0 {
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
// no followers, no pending batches, and no popularity scores — the RAM
// contents of a server that just power-cycled.
func (t *Tier) Flush() {
	for _, obj := range t.residents {
		t.resident[obj] = false
		if t.changed != nil {
			t.changed(obj)
		}
	}
	t.residents = t.residents[:0]
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
		t.score[obj] = 0
		t.last[obj] = -1
	}
}

// AddPending batches a request behind obj's queued leader request; it
// boards the leader's stream when the leader admits.
func (t *Tier) AddPending(obj int, station, arrived int32) {
	r := t.claim(obj)
	r.pending = append(r.pending, Pending{Station: station, Arrived: arrived})
}

// PendingCount returns how many requests are batched behind obj.
func (t *Tier) PendingCount(obj int) int {
	if i := t.slot[obj]; i >= 0 {
		return len(t.slots[i].pending)
	}
	return 0
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
