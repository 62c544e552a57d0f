// Package vdisk implements the paper's virtual-disk abstraction
// (§3.2.1) and the two algorithms built on it: time-fragmented
// delivery with buffering (Algorithm 1) and dynamic coalescing of
// fragmented requests (Algorithm 2).
//
// A virtual disk is a position on the farm that shifts by the stride
// k every time interval, so that a virtual disk reading fragment i of
// subobject s in one interval is positioned over fragment i of
// subobject s+1 in the next.  We identify a virtual disk by its
// physical position at the reference interval τ=0; its position at
// interval t is
//
//	physical(z, t) = (z + k·t) mod D
//
// (The paper writes physical disk (i − kt) mod D, naming a virtual
// disk by the position it would have had at t=0 projected with the
// opposite sign; the two conventions describe the same motion.)
//
// When a request's M_X required disks are not simultaneously free but
// M_X non-adjacent virtual disks are, the display can still be
// admitted: early-positioned virtual disks read fragments into
// buffers (w_offset intervals ahead) and the display starts when the
// last stream reaches its first fragment.  Later, when intervening
// disks free up, streams can be coalesced onto closer virtual disks,
// shrinking the buffer requirement (Figure 6).
package vdisk

import (
	"fmt"
	"math/bits"
	"slices"
)

// Physical returns the physical disk under virtual disk z at interval
// t (t may be any non-negative integer).
func Physical(z, t, k, d int) int {
	if d <= 0 {
		panic("vdisk: non-positive D")
	}
	return (z + k*t%d + d) % d
}

// VirtualAt returns the virtual disk id (position at interval 0)
// whose physical position at interval t is phys — the inverse of
// Physical in its first argument.
func VirtualAt(phys, t, k, d int) int {
	if d <= 0 {
		panic("vdisk: non-positive D")
	}
	return ((phys-k*t%d)%d + d) % d
}

// FirstAlignment returns the smallest t ≥ 0 at which virtual disk z is
// positioned over physical disk target, and ok=false when no such t
// exists (possible when gcd(k, D) does not divide target−z).
func FirstAlignment(z, target, k, d int) (t int, ok bool) {
	if d <= 0 || k <= 0 {
		panic("vdisk: non-positive D or k")
	}
	need := ((target-z)%d + d) % d
	// Solve k·t ≡ need (mod d) for minimal t ≥ 0.
	g := gcd(k, d)
	if need%g != 0 {
		return 0, false
	}
	// Reduce and invert k/g modulo d/g.
	kk, dd, nn := k/g, d/g, need/g
	inv, ok := modInverse(kk, dd)
	if !ok {
		return 0, false
	}
	return (nn % dd * inv) % dd, true
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// modInverse returns a^(-1) mod m via the extended Euclid algorithm.
func modInverse(a, m int) (int, bool) {
	if m == 1 {
		return 0, true
	}
	g, x, _ := extGCD(a%m, m)
	if g != 1 {
		return 0, false
	}
	return (x%m + m) % m, true
}

func extGCD(a, b int) (g, x, y int) {
	if a == 0 {
		return b, 0, 1
	}
	g, x1, y1 := extGCD(b%a, a)
	return g, y1 - (b/a)*x1, x1
}

// Assignment maps each fragment index of one display to a virtual
// disk.  Z[i] is the virtual disk (physical position at the admission
// interval) serving fragment i; T[i] is the number of intervals until
// that virtual disk first reaches fragment i's disk; Tmax = max T[i]
// is the startup delay, after which delivery is continuous.
type Assignment struct {
	D, K  int
	First int // physical disk of the object's fragment (s=0, i=0)
	M     int
	Z     []int
	T     []int
	Tmax  int
}

// NewAssignment validates the virtual-disk choice for an object whose
// subobject 0 starts at physical disk first.
func NewAssignment(d, k, first, m int, z []int) (Assignment, error) {
	if len(z) != m {
		return Assignment{}, fmt.Errorf("vdisk: %d virtual disks for degree %d", len(z), m)
	}
	if first < 0 || first >= d {
		return Assignment{}, fmt.Errorf("vdisk: first disk %d out of range [0, %d)", first, d)
	}
	seen := make(map[int]bool, m)
	a := Assignment{D: d, K: k, First: first, M: m, Z: append([]int(nil), z...), T: make([]int, m)}
	for i, zi := range z {
		if zi < 0 || zi >= d {
			return Assignment{}, fmt.Errorf("vdisk: virtual disk %d out of range [0, %d)", zi, d)
		}
		if seen[zi] {
			return Assignment{}, fmt.Errorf("vdisk: virtual disk %d assigned twice", zi)
		}
		seen[zi] = true
		t, ok := FirstAlignment(zi, (first+i)%d, k, d)
		if !ok {
			return Assignment{}, fmt.Errorf("vdisk: virtual disk %d can never reach fragment %d's disk %d (gcd(%d,%d) misalignment)",
				zi, i, (first+i)%d, k, d)
		}
		a.T[i] = t
		if t > a.Tmax {
			a.Tmax = t
		}
	}
	return a, nil
}

// WOffset returns the number of intervals fragment stream i must
// buffer each fragment before delivery — the w_offset of the paper's
// Algorithm 1 (zero for the last-aligned stream).
func (a Assignment) WOffset(i int) int { return a.Tmax - a.T[i] }

// MaxBuffers returns the peak number of buffered fragments across all
// streams: sum of the per-stream w_offsets.
func (a Assignment) MaxBuffers() int {
	total := 0
	for i := range a.T {
		total += a.WOffset(i)
	}
	return total
}

// Contiguous reports whether the assignment is unfragmented: every
// stream aligned simultaneously (all T equal), i.e. the M virtual
// disks are adjacent and in position.
func (a Assignment) Contiguous() bool {
	for i := range a.T {
		if a.T[i] != a.T[0] {
			return false
		}
	}
	return true
}

// ChooseVirtualDisks picks M distinct virtual disks from the free set
// for an object starting at physical disk first, greedily minimizing
// each stream's alignment delay (and therefore buffering).  The free
// slice lists physical disks that are idle at the admission interval
// and will remain dedicated to this display; duplicates are harmless.
// It returns ok=false when no feasible choice exists, and for invalid
// input: d ≤ 0, k ≤ 0, m outside [1, d], first or a free entry
// outside [0, d).
func ChooseVirtualDisks(d, k, first, m int, free []int) (Assignment, bool) {
	if d <= 0 || k <= 0 || m < 1 || m > d || first < 0 || first >= d {
		return Assignment{}, false
	}
	set := make([]uint64, (d+63)/64)
	for _, f := range free {
		if f < 0 || f >= d {
			return Assignment{}, false
		}
		set[f>>6] |= 1 << uint(f&63)
	}
	a := Assignment{D: d, K: k, First: first, M: m, Z: make([]int, m), T: make([]int, m)}
	tmax, ok := WalkOrbits(set, d, k, first, d/gcd(k, d)-1, a.Z, a.T)
	if !ok {
		return Assignment{}, false
	}
	a.Tmax = tmax
	return a, true
}

// WalkOrbits is the greedy of Algorithm 1 over a free bitset: bit p of
// free (word p/64, bit p%64) marks position p idle at the admission
// interval.  Stream i's fragment lies at position (base+i) mod d, and
// the position that reaches it after t intervals is (base+i − k·t)
// mod d.  Along that orbit of d/gcd(k, d) positions each t belongs to
// exactly one position, so the greedy's minimum-delay choice is the
// first free position, not taken by an earlier stream, that the walk
// meets for t = 0, 1, ….  The walk stops at maxT (clamped to one
// orbit); a stream with no free position within it refuses the whole
// display, since its delay would exceed maxT.
//
// Every position the walk can pick lies in the circular span
// [base − maxT·(k mod d), base + len(z)).  When that span has at most d
// positions and fewer of them are free than there are streams, some
// stream must fail, so the walk is refused by a popcount over the
// span's words before any stream is walked.  The span of the unclamped
// maxT contains the clamped one, so the count runs before the clamp.
//
// On success z[i] is stream i's position and t[i] its delay, for
// len(z) streams, and tmax is the largest delay.  The caller
// guarantees d, k > 0, 0 ≤ base < d, len(z) == len(t) ≤ d and a bitset
// covering d positions.  The walk costs O(len(z)·min(maxT+1, d/g))
// bit probes and allocates nothing.
func WalkOrbits(free []uint64, d, k, base, maxT int, z, t []int) (tmax int, ok bool) {
	step := k % d
	if spanShort(free, d, step, base, maxT, len(z)) {
		return 0, false
	}
	if orbit := d / gcd(k, d); maxT > orbit-1 {
		maxT = orbit - 1
	}
next:
	for i := range z {
		p := base + i
		if p >= d {
			p -= d
		}
		for ti := 0; ti <= maxT; ti++ {
			if free[p>>6]>>uint(p&63)&1 != 0 && !slices.Contains(z[:i], p) {
				z[i], t[i] = p, ti
				tmax = max(tmax, ti)
				continue next
			}
			if p -= step; p < 0 {
				p += d
			}
		}
		return 0, false
	}
	return tmax, true
}

// spanShort reports whether the circular span of WalkOrbits' reachable
// positions, [base − maxT·step, base + m), is at most d positions long
// and holds fewer than m free ones: a walk of m streams it must refuse.
// A longer span, or a negative maxT, is never refused here.
func spanShort(free []uint64, d, step, base, maxT, m int) bool {
	if maxT < 0 || maxT >= d {
		return false // left to the walk: with step ≥ 1 the span exceeds d
	}
	back := maxT * step
	n := back + m
	if n > d {
		return false
	}
	lo := base - back
	if lo < 0 {
		lo += d
	}
	c := countFree(free, lo, min(lo+n, d), m)
	if lo+n > d && c < m {
		c += countFree(free, 0, lo+n-d, m-c)
	}
	return c < m
}

// countFree counts the set bits of free in positions [a, b), stopping
// once it has need of them.
func countFree(free []uint64, a, b, need int) int {
	c := 0
	for a < b && c < need {
		end := a&^63 + 64
		w := free[a>>6] >> uint(a&63)
		if b < end {
			w &= 1<<uint(b-a) - 1
		}
		c += bits.OnesCount64(w)
		a = end
	}
	return c
}
