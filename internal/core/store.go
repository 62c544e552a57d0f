package core

import (
	"fmt"
	"math/bits"
)

// Store is the storage allocator for a staggered-striped disk farm.
// It tracks per-disk occupancy in fragments, chooses start disks for
// newly materialized objects, and releases space on eviction.
// Residency is a dense slice indexed by object id, sized once by
// Reserve for the catalog's ids [0, n), so the Resident/Placement
// probes on the schedulers' per-interval admission path are array
// lookups.
type Store struct {
	layout   Layout
	capacity int // fragments per disk
	used     []int32
	free     int         // total free fragments across the farm
	placed   []placedRec // indexed by object id; valid iff resident bit set
	resident []uint64    // bitset, one bit per object id
	count    int         // number of placed objects
	cursor   int         // round-robin start hint
	shapes   []footShape // footprint shapes by geometry, see shape
}

// footShape is the cached footprint shape of one object geometry.
type footShape struct {
	m, n   int
	counts []int32
}

// placedRec is the packed per-object placement record.  First/M/N are
// bounded by D (at most a few hundred thousand disks at the largest
// sweep factor), so int32 fields shrink the table from 40 to 12 bytes
// per object; the Layout is shared Store-wide and reattached when the
// public Placement is reconstructed.
type placedRec struct {
	first, m, n int32
}

// NewStore returns a Store for the layout with the given per-disk
// capacity in fragments.  It holds no object until Reserve sizes its
// tables.
func NewStore(l Layout, capacityFragments int) (*Store, error) {
	if capacityFragments <= 0 {
		return nil, fmt.Errorf("core: per-disk capacity %d must be positive", capacityFragments)
	}
	return &Store{
		layout:   l,
		capacity: capacityFragments,
		used:     make([]int32, l.D),
		free:     l.D * capacityFragments,
	}, nil
}

// Reserve sizes the placement and residency tables for object ids
// [0, n): the one sizing call, made once when the owner is built,
// before any placement.  Place and PlaceAt refuse an id outside the
// range.
func (s *Store) Reserve(n int) {
	if n > len(s.placed) {
		s.placed = append(s.placed, make([]placedRec, n-len(s.placed))...)
		s.resident = append(s.resident, make([]uint64, (n+63)/64-len(s.resident))...)
	}
}

// Resident reports whether the object id is placed.
func (s *Store) Resident(id int) bool {
	return uint(id) < uint(len(s.placed)) && s.resident[id>>6]&(1<<uint(id&63)) != 0
}

// Placement returns the placement of object id.
func (s *Store) Placement(id int) (Placement, bool) {
	if !s.Resident(id) {
		return Placement{}, false
	}
	r := s.placed[id]
	return Placement{Layout: s.layout, First: int(r.first), M: int(r.m), N: int(r.n)}, true
}

// FirstDisk returns the start disk of object id's placement.  The
// admission scans only need the anchor disk (degree and length come
// from the configuration), so this avoids reconstructing the full
// Placement on the per-request hot path.
func (s *Store) FirstDisk(id int) (int, bool) {
	if !s.Resident(id) {
		return 0, false
	}
	return int(s.placed[id].first), true
}

// ResidentCount returns the number of placed objects.
func (s *Store) ResidentCount() int { return s.count }

// ResidentIDs returns the ids of all placed objects in ascending order.
func (s *Store) ResidentIDs() []int {
	ids := make([]int, 0, s.count)
	for w, word := range s.resident {
		for word != 0 {
			ids = append(ids, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return ids
}

// Used returns the number of fragments stored on disk d.
func (s *Store) Used(d int) int { return int(s.used[d]) }

// FreeFragments returns the total free fragments across the farm.
func (s *Store) FreeFragments() int { return s.free }

// shape returns the footprint shape of an object with degree m and n
// subobjects: the number of its fragments on each disk of the window
// of (N−1)·K + M consecutive ring positions (capped at D) that starts
// at its first disk.  Fragment i of subobject s sits at window offset
// (s·K + i) mod D.  The shape depends only on (D, K, m, n), so it is
// counted once per geometry and kept in a short list searched
// linearly; m and n must be valid for the layout (see NewPlacement).
func (s *Store) shape(m, n int) []int32 {
	for _, sh := range s.shapes {
		if sh.m == m && sh.n == n {
			return sh.counts
		}
	}
	d, k := s.layout.D, s.layout.K
	counts := make([]int32, min((n-1)*k+m, d))
	for sub := 0; sub < n; sub++ {
		for i := 0; i < m; i++ {
			counts[(sub*k+i)%d]++
		}
	}
	s.shapes = append(s.shapes, footShape{m: m, n: n, counts: counts})
	return counts
}

// fits reports whether the footprint shape sh anchored at disk first
// fits in the free space of every disk of its window: the run from
// first to the ring's end, then the wrapped tail from disk 0.
func (s *Store) fits(sh []int32, first int) bool {
	h := min(len(sh), len(s.used)-first)
	return fitsRun(s.used[first:], sh[:h], s.capacity) && fitsRun(s.used, sh[h:], s.capacity)
}

// fitsRun reports whether used[i] + sh[i] stays within capacity for
// every i.  Reslicing used to len(sh) lets the compiler drop the
// per-element bounds checks here and in addRun.
func fitsRun(used, sh []int32, capacity int) bool {
	used = used[:len(sh)]
	for i, c := range sh {
		if int(used[i])+int(c) > capacity {
			return false
		}
	}
	return true
}

// apply adds (sign=+1) or removes (sign=-1) the footprint shape sh of
// an object with total fragments anchored at disk first.
func (s *Store) apply(sh []int32, first, total int, sign int32) {
	h := min(len(sh), len(s.used)-first)
	addRun(s.used[first:], sh[:h], sign)
	addRun(s.used, sh[h:], sign)
	s.free -= int(sign) * total
}

// addRun adds sign·sh[i] to used[i] for every i.
func addRun(used, sh []int32, sign int32) {
	used = used[:len(sh)]
	for i, c := range sh {
		used[i] += sign * c
	}
}

// commit places object id on the footprint shape sh at disk first,
// which the caller has checked fits.
func (s *Store) commit(id, first, m, n int, sh []int32) Placement {
	s.apply(sh, first, n*m, +1)
	s.placed[id] = placedRec{first: int32(first), m: int32(m), n: int32(n)}
	s.resident[id>>6] |= 1 << uint(id&63)
	s.count++
	return Placement{Layout: s.layout, First: first, M: m, N: n}
}

// checkNew rejects an id that cannot be placed: one outside the
// reserved range, which has no slot in the residency index, or one
// already resident.
func (s *Store) checkNew(id int) error {
	if uint(id) >= uint(len(s.placed)) {
		return fmt.Errorf("core: object id %d outside the reserved range [0, %d)", id, len(s.placed))
	}
	if s.Resident(id) {
		return fmt.Errorf("core: object %d already placed", id)
	}
	return nil
}

// PlaceAt places object id with degree m and n subobjects starting at
// a specific disk.  It fails if id is outside the reserved range or
// already placed, or if the object does not fit.
func (s *Store) PlaceAt(id, first, m, n int) (Placement, error) {
	if err := s.checkNew(id); err != nil {
		return Placement{}, err
	}
	if _, err := NewPlacement(s.layout, first, m, n); err != nil {
		return Placement{}, err
	}
	sh := s.shape(m, n)
	if !s.fits(sh, first) {
		return Placement{}, fmt.Errorf("core: object %d (%d fragments) does not fit starting at disk %d",
			id, n*m, first)
	}
	return s.commit(id, first, m, n, sh), nil
}

// Place places object id with degree m and n subobjects, choosing the
// start disk.  The paper assigns subobjects "starting with an
// available cluster"; we use a round-robin cursor advanced by the
// stride so that equal objects tile the farm, falling back to a scan
// of all start positions if the preferred one is full.
func (s *Store) Place(id, m, n int) (Placement, error) {
	if err := s.checkNew(id); err != nil {
		return Placement{}, err
	}
	if n*m > s.FreeFragments() {
		return Placement{}, fmt.Errorf("core: object %d needs %d fragments, only %d free",
			id, n*m, s.FreeFragments())
	}
	if _, err := NewPlacement(s.layout, 0, m, n); err != nil {
		return Placement{}, err
	}
	sh := s.shape(m, n)
	d, k := s.layout.D, s.layout.K
	// Ring packing: the preferred start is just past the previous
	// object's footprint, keeping starts on the k-grid so that
	// same-geometry objects tile the farm evenly.  The grid from the
	// cursor holds D/gcd(D, K) distinct starts, and a failed probe
	// changes nothing, so once they are exhausted every disk is
	// scanned.
	orbit := s.layout.StartDiskOrbit()
	for try := 0; try < orbit+d; try++ {
		first := try - orbit
		if try < orbit {
			first = (s.cursor + try*k) % d
		}
		if s.fits(sh, first) {
			s.cursor = (first + (n-1)*k + m) % d
			return s.commit(id, first, m, n, sh), nil
		}
	}
	return Placement{}, fmt.Errorf("core: no start disk can hold object %d (%d fragments)", id, n*m)
}

// Evict removes object id and frees its space.
func (s *Store) Evict(id int) error {
	if !s.Resident(id) {
		return fmt.Errorf("core: object %d not placed", id)
	}
	r := s.placed[id]
	s.apply(s.shape(int(r.m), int(r.n)), int(r.first), int(r.n)*int(r.m), -1)
	s.placed[id] = placedRec{}
	s.resident[id>>6] &^= 1 << uint(id&63)
	s.count--
	return nil
}
