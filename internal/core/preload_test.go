package core

import (
	"reflect"
	"testing"
)

// placeLoop is Preload's oracle: one Place per id, stopping at the
// first that fails.
func placeLoop(s *Store, ids []int, degree func(int) int, n int) int {
	placed := 0
	for _, id := range ids {
		if _, err := s.Place(id, degree(id), n); err != nil {
			break
		}
		placed++
	}
	return placed
}

// storeState is the store without its shape cache, which Preload
// extends with difference lists that the Place loop never builds.
func storeState(s *Store) Store {
	c := *s
	c.shapes = nil
	return c
}

// FuzzStorePreload checks Preload against the per-object Place loop on
// random farms, mixed-media degree pairs and id lists with duplicates,
// ids outside the reserved range [0, 64) and invalid geometries: the
// same count and the same store, used, free, placements, residency,
// count and cursor.  pre%3 starts from an empty store, from one with a
// resident object (so Preload takes the Place loop), or from an empty
// one whose cursor a placed and evicted object has moved.
func FuzzStorePreload(f *testing.F) {
	ids := func(id ...int) []byte {
		b := make([]byte, len(id))
		for i, v := range id {
			b[i] = byte(v + 4)
		}
		return b
	}
	// d=10, k=2, M=2, N=5: ten objects fill every disk to exactly 10.
	f.Add(uint8(9), uint8(1), uint8(9), uint8(5), uint8(2), uint8(2), uint8(0), ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	// The same at capacity 4: the footprints' sum exceeds the farm.
	f.Add(uint8(9), uint8(1), uint8(3), uint8(5), uint8(2), uint8(2), uint8(0), ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	// k=1 < M=3: the sum fits, but the third window's ramp overflows
	// disk 0, so the plan falls back to Place's search.
	f.Add(uint8(9), uint8(0), uint8(1), uint8(2), uint8(3), uint8(3), uint8(0), ids(0, 1, 2))
	// k=M=5, N=2: a window of exactly D, from a moved cursor, so every
	// window wraps.
	f.Add(uint8(9), uint8(4), uint8(9), uint8(2), uint8(5), uint8(5), uint8(2), ids(0, 1, 2, 3))
	// D=12, k=M=2, N=3: the second window ends exactly at the ring's end.
	f.Add(uint8(11), uint8(1), uint8(9), uint8(3), uint8(2), uint8(2), uint8(0), ids(0, 1, 2))
	// Mixed media, odd ids of degree D+1: the plan ends at id 1.
	f.Add(uint8(9), uint8(1), uint8(9), uint8(3), uint8(2), uint8(11), uint8(0), ids(0, 2, 4, 1, 6))
	// A duplicate, an id out of range, and a store that is not empty.
	f.Add(uint8(9), uint8(1), uint8(9), uint8(3), uint8(2), uint8(3), uint8(0), ids(0, 1, 0, 2))
	f.Add(uint8(9), uint8(1), uint8(9), uint8(3), uint8(2), uint8(3), uint8(0), ids(0, 1, -3, 2))
	f.Add(uint8(9), uint8(1), uint8(9), uint8(3), uint8(2), uint8(3), uint8(1), ids(0, 1, 2))
	f.Fuzz(func(t *testing.T, dRaw, kRaw, capRaw, nRaw, m0Raw, m1Raw, pre uint8, raw []byte) {
		d := int(dRaw%40) + 1
		k := int(kRaw)%d + 1
		capacity := int(capRaw) + 1
		n := int(nRaw % 41)                                           // 0 is invalid
		degrees := [2]int{int(m0Raw) % (d + 2), int(m1Raw) % (d + 2)} // 0 and D+1 are invalid
		degree := func(id int) int { return degrees[id&1] }
		const reserved = 64
		ids := make([]int, min(len(raw), 128))
		for i := range ids {
			ids[i] = int(raw[i])%72 - 4
		}
		build := func() *Store {
			s, err := NewStore(Layout{D: d, K: k}, capacity)
			if err != nil {
				t.Fatal(err)
			}
			s.Reserve(reserved)
			switch pre % 3 {
			case 1:
				if _, err := s.PlaceAt(reserved-1, int(pre)%d, 1, 1); err != nil {
					t.Fatal(err)
				}
			case 2:
				if _, err := s.Place(reserved-1, 1, 1); err != nil {
					t.Fatal(err)
				}
				if err := s.Evict(reserved - 1); err != nil {
					t.Fatal(err)
				}
			}
			return s
		}
		got, want := build(), build()
		gotN, wantN := got.Preload(ids, degree, n), placeLoop(want, ids, degree, n)
		if gotN != wantN {
			t.Fatalf("Preload placed %d, the Place loop %d", gotN, wantN)
		}
		if g, w := storeState(got), storeState(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("Preload store\n%+v\nPlace loop store\n%+v", g, w)
		}
	})
}

// TestPreloadAllocs pins the preload's allocation rule at the
// scale-zipf size, 50,000 disks and 40,000 objects under simple
// striping: nothing proportional to D or to the id list, only the
// shape cache's entry for the one geometry.
func TestPreloadAllocs(t *testing.T) {
	const d, m, n, objects, runs = 50000, 5, 30, 40000, 4
	ids := make([]int, objects)
	for i := range ids {
		ids[i] = i
	}
	degree := func(int) int { return m }
	stores := make([]*Store, runs+1) // AllocsPerRun adds a warm-up call
	for i := range stores {
		stores[i] = mustStore(t, mustLayout(t, d, m), 200, objects)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := stores[next]
		next++
		if got := s.Preload(ids, degree, n); got != objects {
			t.Fatalf("Preload placed %d of %d", got, objects)
		}
	})
	// The shape's counts and the shapes list that holds it; under the
	// race detector the compiler builds the counts' zeroed source
	// slice separately, one more.
	if allocs > 3 {
		t.Errorf("Preload of %d objects on %d disks: %v allocations, want at most 3", objects, d, allocs)
	}
}
