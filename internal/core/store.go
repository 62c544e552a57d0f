package core

import (
	"fmt"
	"math/bits"
)

// Store is the storage allocator for a staggered-striped disk farm.
// It tracks per-disk occupancy in fragments, chooses start disks for
// newly materialized objects, and releases space on eviction.
// Residency is a dense slice indexed by object id (ids are small
// non-negative integers), so the Resident/Placement probes on the
// schedulers' per-interval admission path are array lookups.
type Store struct {
	layout   Layout
	capacity int // fragments per disk
	used     []int32
	free     int         // total free fragments across the farm
	placed   []placedRec // indexed by object id; valid iff resident bit set
	resident []uint64    // bitset, one bit per object id
	ids      int         // logical table length: max id seen + 1
	count    int         // number of placed objects
	cursor   int         // round-robin start hint

	// diff is the reusable difference-array scratch for footprint
	// walks; fits and apply run once per Place probe, so at large D
	// they must not allocate or touch disks outside the footprint.
	diff []int32
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
// capacity in fragments.
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

// Reserve pre-sizes the placement and residency tables to hold n
// object ids without reallocating.  Preload loops that place objects
// in popularity (non-ascending id) order should call this once so the
// tables are built in a single allocation.
func (s *Store) Reserve(n int) {
	if n <= len(s.placed) {
		return
	}
	nextP := make([]placedRec, n)
	copy(nextP, s.placed)
	s.placed = nextP
	nextR := make([]uint64, (n+63)/64)
	copy(nextR, s.resident)
	s.resident = nextR
}

// ensure extends the residency index to cover id with amortized
// (capacity-doubling) growth, so out-of-order placement is O(n) total
// rather than quadratic in reallocation traffic.
func (s *Store) ensure(id int) {
	if id < s.ids {
		return
	}
	if id >= len(s.placed) {
		n := len(s.placed) * 2
		if n < id+1 {
			n = id + 1
		}
		if n < 64 {
			n = 64
		}
		nextP := make([]placedRec, n)
		copy(nextP, s.placed)
		s.placed = nextP
		nextR := make([]uint64, (n+63)/64)
		copy(nextR, s.resident)
		s.resident = nextR
	}
	s.ids = id + 1
}

// Layout returns the store's layout.
func (s *Store) Layout() Layout { return s.layout }

// CapacityFragments returns the per-disk capacity.
func (s *Store) CapacityFragments() int { return s.capacity }

// Resident reports whether the object id is placed.
func (s *Store) Resident(id int) bool {
	return id >= 0 && id < s.ids && s.resident[id>>6]&(1<<uint(id&63)) != 0
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
			id := w*64 + bits.TrailingZeros64(word)
			if id >= s.ids {
				break
			}
			ids = append(ids, id)
			word &= word - 1
		}
	}
	return ids
}

// Used returns the number of fragments stored on disk d.
func (s *Store) Used(d int) int { return int(s.used[d]) }

// FreeFragments returns the total free fragments across the farm.
func (s *Store) FreeFragments() int { return s.free }

// footprint walks the placement's storage footprint, calling
// fn(disk, fragments) for every disk the object touches, and stops
// early when fn returns false.  Subobject s occupies disks
// (First + s·K .. + M−1) mod D, so the whole footprint lies in a
// window of (N−1)·K + M consecutive ring positions starting at First;
// the walk accumulates a difference array over that window (capped at
// D) in reusable scratch, visiting O(window) disks instead of
// materializing an O(D) per-disk slice the way FragmentsPerDisk does.
func (s *Store) footprint(p Placement, fn func(d, c int) bool) bool {
	d, k := p.Layout.D, p.Layout.K
	w := (p.N-1)*k + p.M
	if w > d {
		w = d
	}
	if cap(s.diff) < w+1 {
		s.diff = make([]int32, w+1)
	}
	diff := s.diff[:w+1]
	for i := range diff {
		diff[i] = 0
	}
	for sub := 0; sub < p.N; sub++ {
		// Window coordinates: subobject sub starts at offset sub·K from
		// First.  When the window spans the whole ring the offsets wrap.
		start := sub * k
		if start >= w {
			start %= d
		}
		end := start + p.M
		if end <= w {
			diff[start]++
			diff[end]--
		} else {
			diff[start]++
			diff[w]--
			diff[0]++
			diff[end-w]--
		}
	}
	run := int32(0)
	for i := 0; i < w; i++ {
		run += diff[i]
		if run > 0 && !fn((p.First+i)%d, int(run)) {
			return false
		}
	}
	return true
}

// fits reports whether the placement's footprint fits in the free
// space of every disk it touches.
func (s *Store) fits(p Placement) bool {
	return s.footprint(p, func(d, c int) bool {
		return int(s.used[d])+c <= s.capacity
	})
}

// apply adds (sign=+1) or removes (sign=-1) the placement's footprint.
func (s *Store) apply(p Placement, sign int) {
	s.footprint(p, func(d, c int) bool {
		s.used[d] += int32(sign * c)
		s.free -= sign * c
		return true
	})
}

// PlaceAt places object id with degree m and n subobjects starting at
// a specific disk.  It fails if the object is already placed or does
// not fit.
func (s *Store) PlaceAt(id, first, m, n int) (Placement, error) {
	if s.Resident(id) {
		return Placement{}, fmt.Errorf("core: object %d already placed", id)
	}
	p, err := NewPlacement(s.layout, first, m, n)
	if err != nil {
		return Placement{}, err
	}
	if !s.fits(p) {
		return Placement{}, fmt.Errorf("core: object %d (%d fragments) does not fit starting at disk %d",
			id, p.TotalFragments(), first)
	}
	s.apply(p, +1)
	s.ensure(id)
	s.placed[id] = placedRec{first: int32(p.First), m: int32(p.M), n: int32(p.N)}
	s.resident[id>>6] |= 1 << uint(id&63)
	s.count++
	return p, nil
}

// Place places object id with degree m and n subobjects, choosing the
// start disk.  The paper assigns subobjects "starting with an
// available cluster"; we use a round-robin cursor advanced by the
// stride so that equal objects tile the farm, falling back to a scan
// of all start positions if the preferred one is full.
func (s *Store) Place(id, m, n int) (Placement, error) {
	if s.Resident(id) {
		return Placement{}, fmt.Errorf("core: object %d already placed", id)
	}
	if n*m > s.FreeFragments() {
		return Placement{}, fmt.Errorf("core: object %d needs %d fragments, only %d free",
			id, n*m, s.FreeFragments())
	}
	// Ring packing: the preferred start is just past the previous
	// object's footprint, keeping starts on the k-grid so that
	// same-geometry objects tile the farm evenly.
	advance := (n-1)*s.layout.K + m
	for try := 0; try < s.layout.D; try++ {
		first := (s.cursor + try*s.layout.K) % s.layout.D
		p, err := s.PlaceAt(id, first, m, n)
		if err == nil {
			s.cursor = (first + advance) % s.layout.D
			return p, nil
		}
	}
	// The k-grid is exhausted; scan every disk.
	for first := 0; first < s.layout.D; first++ {
		p, err := s.PlaceAt(id, first, m, n)
		if err == nil {
			s.cursor = (first + advance) % s.layout.D
			return p, nil
		}
	}
	return Placement{}, fmt.Errorf("core: no start disk can hold object %d (%d fragments)", id, n*m)
}

// Evict removes object id and frees its space.
func (s *Store) Evict(id int) error {
	if !s.Resident(id) {
		return fmt.Errorf("core: object %d not placed", id)
	}
	p, _ := s.Placement(id)
	s.apply(p, -1)
	s.placed[id] = placedRec{}
	s.resident[id>>6] &^= 1 << uint(id&63)
	s.count--
	return nil
}
