package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// Once Preload has built it, the shape's difference list, pairs
// (offset, step) pairs, follows counts' length in its capacity; see
// diffSteps.
type footShape struct {
	m, n, pairs int32
	counts      []int32
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
// subobjects, whose counts are the number of its fragments on each
// disk of the window of (N−1)·K + M consecutive ring positions (capped
// at D) that starts at its first disk.  Fragment i of subobject s sits
// at window offset (s·K + i) mod D.  The shape depends only on (D, K,
// m, n), so it is counted once per geometry and kept in a short list
// searched linearly; m and n must be valid for the layout (see
// NewPlacement).
func (s *Store) shape(m, n int) *footShape {
	for i := range s.shapes {
		if sh := &s.shapes[i]; int(sh.m) == m && int(sh.n) == n {
			return sh
		}
	}
	d, k := s.layout.D, s.layout.K
	w := min((n-1)*k+m, d)
	// Grown from nil, the slice's capacity is its allocation's whole
	// size class; diffSteps keeps the difference list in that slack.
	counts := slices.Grow([]int32(nil), w)[:w]
	for sub := 0; sub < n; sub++ {
		for i := 0; i < m; i++ {
			counts[(sub*k+i)%d]++
		}
	}
	s.shapes = append(s.shapes, footShape{m: int32(m), n: int32(n), counts: counts})
	return &s.shapes[len(s.shapes)-1]
}

// diffSteps returns the shape's difference list as (offset, step)
// pairs: a step at every window offset where the count changes, the
// last one at the window's end back to zero.  Two steps when K = M;
// the ramps at the window's ends add more when K < M, and the gaps one
// pair a subobject when K > M.  The list lives in the counts slice's
// spare capacity; only a list longer than the slack allocates, and
// then counts moves with it.
func (sh *footShape) diffSteps() []int32 {
	w := len(sh.counts)
	if sh.pairs == 0 {
		buf, prev := sh.counts, int32(0)
		for off, c := range sh.counts {
			if c != prev {
				buf = append(buf, int32(off), c-prev)
				prev = c
			}
		}
		buf = append(buf, int32(w), -prev)
		sh.counts, sh.pairs = buf[:w], int32(len(buf)-w)/2
	}
	return sh.counts[w : w+2*int(sh.pairs)]
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
	sh := s.shape(m, n).counts
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
	sh := s.shape(m, n).counts
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

// Preload places the objects ids in order, each with degree
// degree(id) and n subobjects, exactly as successive Place calls
// would, and returns how many it placed: like such a loop it stops at
// the first object that cannot be placed.
//
// On an empty store it plans the ids at the starts the ring cursor
// gives them, adding each footprint's difference list to used in
// place, and then checks every disk once in one prefix pass.  used
// only grows during a preload, so if every disk fits at the end, every
// object's first Place probe would have fitted, and the store is the
// one the Place loop builds.  If a disk overflows, or the store is not
// empty, it runs the Place loop instead.  It allocates nothing but the
// shape cache's per-geometry entries.
func (s *Store) Preload(ids []int, degree func(id int) int, n int) (placed int) {
	if s.count == 0 && s.preloadAll(ids, degree, n) {
		return s.count
	}
	for _, id := range ids {
		if _, err := s.Place(id, degree(id), n); err != nil {
			break
		}
		placed++
	}
	return placed
}

// preloadAll plans the prefix of ids before the first one that Place's
// id and geometry checks refuse, at successive cursor starts, on an
// empty store.  It commits the plan and reports true if every disk
// fits; otherwise it restores the empty store and reports false.
func (s *Store) preloadAll(ids []int, degree func(id int) int, n int) bool {
	d, k := s.layout.D, s.layout.K
	cursor, free := s.cursor, s.free
	// The footprints' sum bounds every disk's count, so below
	// MaxInt32 the wrapping int32 prefix sums are exact.
	limit, total, planned := min(free, math.MaxInt32), 0, 0
	for _, id := range ids {
		m := 0
		if uint(id) < uint(len(s.placed)) && !s.Resident(id) {
			m = degree(id)
		}
		if m < 1 || m > d || n < 1 {
			break
		}
		if total += n * m; total > limit {
			break
		}
		first := s.cursor
		s.addSteps(s.shape(m, n), first)
		s.placed[id] = placedRec{first: int32(first), m: int32(m), n: int32(n)}
		s.resident[id>>6] |= 1 << uint(id&63)
		s.cursor = (first + (n-1)*k + m) % d
		planned++
	}
	fits := total <= limit
	for i, run := 0, int32(0); fits && i < d; i++ {
		run += s.used[i]
		s.used[i] = run
		fits = int(run) <= s.capacity
	}
	if !fits {
		// The store was empty, so every table but the shapes was zero.
		clear(s.used)
		clear(s.placed)
		clear(s.resident)
		s.cursor = cursor
		return false
	}
	s.count, s.free = planned, free-total
	return true
}

// addSteps adds the difference list of shape sh anchored at disk first
// to used, read as a difference array over the ring: steps past the
// ring's end wrap to disk 0, where a window that wraps also adds its
// count at disk 0.
func (s *Store) addSteps(sh *footShape, first int) {
	d, used, steps := len(s.used), s.used, sh.diffSteps()
	for i := 0; i+1 < len(steps); i += 2 {
		if p := first + int(steps[i]); p < d {
			used[p] += steps[i+1]
		} else if p > d {
			used[p-d] += steps[i+1]
		}
	}
	if first+len(sh.counts) > d {
		used[0] += sh.counts[d-first]
	}
}

// Evict removes object id and frees its space.
func (s *Store) Evict(id int) error {
	if !s.Resident(id) {
		return fmt.Errorf("core: object %d not placed", id)
	}
	r := s.placed[id]
	s.apply(s.shape(int(r.m), int(r.n)).counts, int(r.first), int(r.n)*int(r.m), -1)
	s.placed[id] = placedRec{}
	s.resident[id>>6] &^= 1 << uint(id&63)
	s.count--
	return nil
}
