// Package core implements the paper's primary contribution: the
// staggered striping placement discipline and its special cases,
// simple striping (stride k = M) and virtual data replication
// (stride k = D).
//
// An object X with degree of declustering M_X is stored so that
// fragment i of subobject s lives on physical disk
//
//	disk(s, i) = (p + s·k + i) mod D
//
// where p is the disk holding X_{0.0} and k is the system-wide stride
// (Table 2, Figures 4 and 5 of the paper).  The package provides the
// placement arithmetic, the storage allocator that tracks per-disk
// capacity, the data-skew analysis of §3.2.2, and text renderings of
// the paper's layout figures.
package core

import (
	"fmt"
)

// Layout describes a disk farm's striping configuration.
type Layout struct {
	D int // number of disk drives in the system
	K int // stride: distance between X_{s.0} and X_{s+1.0}
}

// NewLayout validates and returns a layout.  The stride may range
// from 1 to D (§3.2.2); values outside are rejected rather than
// silently reduced modulo D.
func NewLayout(d, k int) (Layout, error) {
	if d <= 0 {
		return Layout{}, fmt.Errorf("core: system must have at least one disk, got %d", d)
	}
	if k < 1 || k > d {
		return Layout{}, fmt.Errorf("core: stride %d out of range [1, %d]", k, d)
	}
	return Layout{D: d, K: k}, nil
}

// SimpleStriping returns the layout implementing simple striping for
// degree-of-declustering m: stride k = m (§3.2).  D must be a
// multiple of m so that clusters tile the farm.
func SimpleStriping(d, m int) (Layout, error) {
	if m <= 0 || d%m != 0 {
		return Layout{}, fmt.Errorf("core: simple striping needs D (%d) to be a multiple of M (%d)", d, m)
	}
	return NewLayout(d, m)
}

// Clusters returns R = D/M, the number of physical disk clusters for
// degree m, valid when D is a multiple of m.
func (l Layout) Clusters(m int) int { return l.D / m }

// Disk returns the physical disk holding fragment frag of subobject
// sub for an object whose first fragment is on disk first.
func (l Layout) Disk(first, sub, frag int) int {
	// All quantities may be large; Go's % keeps sign for non-negative
	// operands, which these are.
	return (first + sub*l.K + frag) % l.D
}

// Placement records where one object lives on the farm.
type Placement struct {
	Layout Layout
	First  int // disk of X_{0.0}
	M      int // degree of declustering
	N      int // number of subobjects
}

// NewPlacement validates and returns a placement.
func NewPlacement(l Layout, first, m, n int) (Placement, error) {
	switch {
	case first < 0 || first >= l.D:
		return Placement{}, fmt.Errorf("core: first disk %d out of range [0, %d)", first, l.D)
	case m < 1 || m > l.D:
		return Placement{}, fmt.Errorf("core: degree %d out of range [1, %d]", m, l.D)
	case n < 1:
		return Placement{}, fmt.Errorf("core: need at least one subobject, got %d", n)
	}
	return Placement{Layout: l, First: first, M: m, N: n}, nil
}

// Disk returns the physical disk holding fragment frag of subobject
// sub.
func (p Placement) Disk(sub, frag int) int {
	if sub < 0 || sub >= p.N {
		panic(fmt.Sprintf("core: subobject %d out of range [0, %d)", sub, p.N))
	}
	if frag < 0 || frag >= p.M {
		panic(fmt.Sprintf("core: fragment %d out of range [0, %d)", frag, p.M))
	}
	return p.Layout.Disk(p.First, sub, frag)
}

// FragmentsPerDisk returns, for each physical disk, the number of
// fragments of this object stored on it.  This is the object's exact
// storage footprint, used by the allocator and by the skew analysis.
func (p Placement) FragmentsPerDisk() []int {
	counts := make([]int, p.Layout.D)
	// Each subobject contributes one fragment to each of M consecutive
	// disks starting at (First + s·K) mod D.  Accumulate with a
	// difference array over the ring for O(N + D) instead of O(N·M).
	diff := make([]int, p.Layout.D+1)
	for s := 0; s < p.N; s++ {
		start := (p.First + s*p.Layout.K) % p.Layout.D
		end := start + p.M
		if end <= p.Layout.D {
			diff[start]++
			diff[end]--
		} else {
			diff[start]++
			diff[p.Layout.D]--
			diff[0]++
			diff[end-p.Layout.D]--
		}
	}
	run := 0
	for d := 0; d < p.Layout.D; d++ {
		run += diff[d]
		counts[d] = run
	}
	return counts
}

// UniqueDisks returns the number of distinct physical disks that hold
// at least one fragment of the object.  §3.2.2's example: D = 100,
// M_X = 4, k = 1, a 100-cylinder object (25 subobjects) spreads over
// 28 disks.
func (p Placement) UniqueDisks() int {
	n := 0
	for _, c := range p.FragmentsPerDisk() {
		if c > 0 {
			n++
		}
	}
	return n
}

// TotalFragments returns N × M.
func (p Placement) TotalFragments() int { return p.N * p.M }

// gcd returns the greatest common divisor of a and b.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// StartDiskOrbit returns the number of distinct disks that can hold a
// subobject's first fragment for a fixed object start: D / gcd(D, k).
// With k = D the orbit is 1 (virtual data replication pins the object
// to one cluster); with gcd = 1 the orbit is all of D.
func (l Layout) StartDiskOrbit() int { return l.D / gcd(l.D, l.K) }
