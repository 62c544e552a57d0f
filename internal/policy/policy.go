// Package policy implements the simulation's storage-management
// policies: the paper's least-frequently-accessed replacement (§4.1)
// and a load-triggered dynamic replication rule standing in for the
// Minimum Response Time (MRT) state-transition diagram of [GS93] used
// by the virtual-data-replication baseline.
//
// The MRT diagram itself is not reproduced in the paper; DESIGN.md §5
// documents the substitution.  The rule implemented here replicates a
// resident object when its waiting demand exceeds what its current
// replicas can absorb within one display time — the cost of making a
// disk-to-disk copy.
package policy

import (
	"fmt"
	"math"
)

// LFU tracks object access frequencies and selects replacement
// victims.  The paper: "it implements a replacement policy that
// removes the least frequently accessed object" (§4.1).  Object ids
// are small non-negative integers, so the table is a dense slice:
// Touch and Count are array indexing on the engines' hot paths.
type LFU struct {
	counts []int64
}

// NewLFU returns an empty frequency table.
func NewLFU() *LFU {
	return &LFU{}
}

// grow extends the table to cover id with amortized (capacity-
// doubling) growth so out-of-order first touches stay O(n).
func (l *LFU) grow(id int) {
	if id < len(l.counts) {
		return
	}
	if id < cap(l.counts) {
		l.counts = l.counts[:id+1]
		return
	}
	n := cap(l.counts) * 2
	if n < id+1 {
		n = id + 1
	}
	if n < 64 {
		n = 64
	}
	next := make([]int64, id+1, n)
	copy(next, l.counts)
	l.counts = next
}

// Touch records one access to object id.
func (l *LFU) Touch(id int) {
	l.grow(id)
	l.counts[id]++
}

// Count returns the accesses recorded for id.
func (l *LFU) Count(id int) int64 {
	if id < 0 || id >= len(l.counts) {
		return 0
	}
	return l.counts[id]
}

// Victim returns the candidate with the lowest access count; ok is
// false when candidates is empty.  Ties break toward the LARGEST id:
// ids are assigned in materialization order, so among equally-cold
// objects the youngest resident goes first, which protects objects
// that simply have not been referenced yet this run.
func (l *LFU) Victim(candidates []int) (victim int, ok bool) {
	best, bestCount := -1, int64(math.MaxInt64)
	for _, id := range candidates {
		c := l.Count(id)
		if c < bestCount || (c == bestCount && id > best) {
			best, bestCount = id, c
		}
	}
	return best, best >= 0
}

// Replication is the demand-proportional replication rule for the VDR
// baseline.  An object's target replica count follows its long-run
// share of the reference stream:
//
//	target(X) = ceil(Theta × share(X) × concurrency)
//
// where concurrency is the number of displays the farm can sustain
// (min(stations, clusters)) and Theta adds headroom.  A copy starts
// only while at least one display is actually waiting for the object
// and the replica count (including copies in flight) is below target.
// Bounding by a long-run target rather than the instantaneous queue
// is what keeps the baseline from replication storms: with zero think
// time the queue refills the moment a copy starts, and an unbounded
// trigger would convert the whole farm into copy traffic.
type Replication struct {
	Theta float64
}

// DefaultReplication provisions each object's replicas at three
// times its mean concurrent demand.  Demand peaks of a Poisson-like
// arrival stream routinely reach 2–3× the mean, so this is the
// smallest headroom at which waiting for a busy replica becomes rare
// — the operating point a minimum-response-time policy converges to
// when disk space is not the binding constraint.
func DefaultReplication() Replication { return Replication{Theta: 3} }

// Target returns the desired replica count for an object with the
// given reference share under the given sustainable concurrency.
// Resident objects always warrant one replica.
func (r Replication) Target(share float64, concurrency int) int {
	if share < 0 || share > 1 {
		panic(fmt.Sprintf("policy: share %v out of [0,1]", share))
	}
	// The small epsilon keeps exact products (e.g. 1.5×0.1×200 = 30)
	// from ceiling up on floating-point noise.
	t := int(math.Ceil(r.Theta*share*float64(concurrency) - 1e-9))
	if t < 1 {
		t = 1
	}
	return t
}

// ShouldReplicate reports whether object X should gain a replica now:
// it is resident, a display is waiting on it, and its replica count
// (including in-flight copies) is below target.
func (r Replication) ShouldReplicate(waiters, replicas, target int) bool {
	if replicas <= 0 {
		return false // not resident: materialization, not replication
	}
	return waiters >= 1 && replicas < target
}
