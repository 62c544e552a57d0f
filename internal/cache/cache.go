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
// evicts, and per-object leader/follower/pending registries for
// multicast stream sharing.  All methods run on the engine's interval goroutine.
//
// Replacement is popularity-weighted: each reference adds one unit to
// an exponentially decayed per-object score (half-life of one display
// length), the victim is the coldest resident by decayed request rate,
// and a newcomer must out-score it to displace it.  This is the
// interval-caching admission of Jayarekha & Nair: bursty one-time
// traffic decays away instead of flushing the Zipf head.
type Tier struct {
	spec      Spec
	prefixLen int
	bytes     []int64 // object -> pinned prefix size in bytes
	resident  []bool
	residents []int // resident object ids, order-free (victim ties on id)
	used      int64

	score    []float64 // object -> decayed reference count
	last     []int32   // object -> interval of the last reference, -1 = never
	halfLife float64

	// Leader registry: the newest in-flight disk stream per object.
	// leaderEnd is exclusive; leaderEnd <= now means no live leader.
	leaderStation []int32
	leaderStart   []int32
	leaderEnd     []int32
	leaderTmax    []int32
	followers     [][]int32   // object -> stations sharing the leader stream
	pending       [][]Pending // object -> requests batched behind a queued leader
}

// NewTier builds the tier for a catalog of objects.  prefixLen is the
// effective pinned prefix in subobjects (already clamped by the
// caller), bytesOf gives each object's prefix footprint in bytes, and
// halfLife tunes the popularity score's decay (typically one display
// length in intervals).
func NewTier(spec *Spec, objects, prefixLen int, bytesOf func(int) int64, halfLife float64) *Tier {
	if halfLife <= 0 {
		halfLife = 1
	}
	t := &Tier{
		spec:          *spec,
		prefixLen:     prefixLen,
		bytes:         make([]int64, objects),
		resident:      make([]bool, objects),
		score:         make([]float64, objects),
		last:          make([]int32, objects),
		halfLife:      halfLife,
		leaderStation: make([]int32, objects),
		leaderStart:   make([]int32, objects),
		leaderEnd:     make([]int32, objects),
		leaderTmax:    make([]int32, objects),
		followers:     make([][]int32, objects),
		pending:       make([][]Pending, objects),
	}
	for id := range t.bytes {
		t.bytes[id] = bytesOf(id)
		t.last[id] = -1
	}
	return t
}

// PrefixLen returns the pinned prefix length in subobjects.
func (t *Tier) PrefixLen() int { return t.prefixLen }

// Resident reports whether obj's prefix is pinned right now.
func (t *Tier) Resident(obj int) bool { return t.resident[obj] }

// Bytes returns obj's prefix footprint.
func (t *Tier) Bytes(obj int) int64 { return t.bytes[obj] }

// Used returns the bytes currently pinned.
func (t *Tier) Used() int64 { return t.used }

// ResidentCount returns the number of pinned prefixes.
func (t *Tier) ResidentCount() int { return len(t.residents) }

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
	need := t.bytes[obj]
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
	t.used += t.bytes[obj]
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
	t.used -= t.bytes[obj]
}

// AttachGap reports whether a request for obj arriving now can attach
// to the in-flight leader stream as a follower, and the gap (in
// intervals) it trails the leader by.  Attaching requires a live
// leader whose streams have fully started (gap at least the leader's
// startup Tmax), a gap inside both the batch window and the pinned
// prefix (the RAM prefix is what the follower catches up from), and
// the prefix to actually be resident.
func (t *Tier) AttachGap(obj, now, window int) (int, bool) {
	if int(t.leaderEnd[obj]) <= now {
		return 0, false
	}
	gap := now - int(t.leaderStart[obj])
	if gap < 1 || gap < int(t.leaderTmax[obj]) || gap > window || gap > t.prefixLen || !t.resident[obj] {
		return 0, false
	}
	return gap, true
}

// SetLeader registers the disk stream admitted for obj at start as the
// object's leader, ending (exclusive) at end.  Any followers of an
// older leader are dropped from the registry — their displays still
// complete on their own clocks, they just lose detach-on-abort
// coverage for the superseded stream.
func (t *Tier) SetLeader(obj int, station int32, start, end, tmax int) {
	t.leaderStation[obj] = station
	t.leaderStart[obj] = int32(start)
	t.leaderEnd[obj] = int32(end)
	t.leaderTmax[obj] = int32(tmax)
	t.followers[obj] = t.followers[obj][:0]
}

// AddFollower records station as sharing obj's leader stream.
func (t *Tier) AddFollower(obj int, station int32) {
	t.followers[obj] = append(t.followers[obj], station)
}

// RemoveFollower drops a completed follower from obj's share list.
func (t *Tier) RemoveFollower(obj int, station int32) {
	fs := t.followers[obj]
	for i, s := range fs {
		if s == station {
			last := len(fs) - 1
			fs[i] = fs[last]
			t.followers[obj] = fs[:last]
			return
		}
	}
}

// DetachIfLeader clears obj's leader registration if station is the
// live leader, appending the followers that were sharing its stream to
// buf.  It reports whether a detach happened.  The caller owns buf —
// the tier's own backing is reusable immediately.
func (t *Tier) DetachIfLeader(obj int, station int32, now int, buf []int32) ([]int32, bool) {
	if int(t.leaderEnd[obj]) <= now || t.leaderStation[obj] != station {
		return buf, false
	}
	buf = append(buf, t.followers[obj]...)
	t.followers[obj] = t.followers[obj][:0]
	t.leaderEnd[obj] = 0
	return buf, true
}

// PendingObjects appends to buf every object id with a non-empty
// pending batch, ascending — the deterministic drain order the
// failover path uses to orphan batched requests when a whole server
// dies.  The caller owns buf.
func (t *Tier) PendingObjects(buf []int) []int {
	for obj, ps := range t.pending {
		if len(ps) > 0 {
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
	}
	t.residents = t.residents[:0]
	t.used = 0
	for obj := range t.leaderEnd {
		t.leaderEnd[obj] = 0
		t.followers[obj] = t.followers[obj][:0]
		t.pending[obj] = t.pending[obj][:0]
		t.score[obj] = 0
		t.last[obj] = -1
	}
}

// AddPending batches a request behind obj's queued leader request; it
// boards the leader's stream when the leader admits.
func (t *Tier) AddPending(obj int, station, arrived int32) {
	t.pending[obj] = append(t.pending[obj], Pending{Station: station, Arrived: arrived})
}

// PendingCount returns how many requests are batched behind obj.
func (t *Tier) PendingCount(obj int) int { return len(t.pending[obj]) }

// TakePending drains obj's batched requests into buf and returns it.
// The caller owns buf — the tier's backing is reusable immediately.
func (t *Tier) TakePending(obj int, buf []Pending) []Pending {
	buf = append(buf, t.pending[obj]...)
	t.pending[obj] = t.pending[obj][:0]
	return buf
}
