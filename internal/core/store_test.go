package core

import (
	"testing"
	"testing/quick"
)

// mustStore returns a Store reserved for object ids [0, objects).
func mustStore(t testing.TB, l Layout, cap, objects int) *Store {
	t.Helper()
	s, err := NewStore(l, cap)
	if err != nil {
		t.Fatal(err)
	}
	s.Reserve(objects)
	return s
}

func TestStoreValidation(t *testing.T) {
	l := mustLayout(t, 10, 1)
	if _, err := NewStore(l, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	// The tables hold the reserved ids [0, n): the first id past them
	// is refused and changes nothing.
	s := mustStore(t, l, 100, 4)
	if _, err := s.Place(4, 2, 3); err == nil {
		t.Error("Place of id 4 accepted on a Store reserved for 4 objects")
	}
	if _, err := s.PlaceAt(4, 0, 2, 3); err == nil {
		t.Error("PlaceAt of id 4 accepted on a Store reserved for 4 objects")
	}
	if _, err := s.Place(3, 2, 3); err != nil {
		t.Errorf("Place of the last reserved id: %v", err)
	}
	if s.Resident(4) || s.ResidentCount() != 1 || s.FreeFragments() != 1000-6 {
		t.Errorf("a refused id changed the store: resident(4) %v, %d resident, %d free",
			s.Resident(4), s.ResidentCount(), s.FreeFragments())
	}
}

func TestStorePlaceEvictRoundTrip(t *testing.T) {
	s := mustStore(t, mustLayout(t, 10, 1), 100, 2)
	p, err := s.Place(1, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Resident(1) || s.ResidentCount() != 1 {
		t.Fatal("object not resident after Place")
	}
	got, ok := s.Placement(1)
	if !ok || got != p {
		t.Fatal("Placement lookup mismatch")
	}
	free := s.FreeFragments()
	if want := 10*100 - 60; free != want {
		t.Fatalf("free fragments = %d, want %d", free, want)
	}
	if err := s.Evict(1); err != nil {
		t.Fatal(err)
	}
	if s.Resident(1) || s.FreeFragments() != 1000 {
		t.Fatal("eviction did not free space")
	}
	if err := s.Evict(1); err == nil {
		t.Fatal("double evict succeeded")
	}
}

func TestStoreRejectsDuplicate(t *testing.T) {
	s := mustStore(t, mustLayout(t, 10, 1), 100, 2)
	if _, err := s.Place(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(1, 2, 5); err == nil {
		t.Fatal("duplicate placement accepted")
	}
	if _, err := s.PlaceAt(1, 0, 2, 5); err == nil {
		t.Fatal("duplicate PlaceAt accepted")
	}
}

func TestStoreCapacityEnforced(t *testing.T) {
	s := mustStore(t, mustLayout(t, 4, 1), 10, 4)
	// Farm capacity = 40 fragments.  Place a 36-fragment object
	// (9 subobjects × M=4, perfectly balanced: 9 per disk).
	if _, err := s.Place(1, 4, 9); err != nil {
		t.Fatal(err)
	}
	// 4 fragments free (1 per disk); a 2-subobject M=4 object needs 2
	// on some disks.
	if _, err := s.Place(2, 4, 2); err == nil {
		t.Fatal("over-capacity placement accepted")
	}
	// A 1-subobject M=4 object fits exactly.
	if _, err := s.Place(3, 4, 1); err != nil {
		t.Fatalf("exact-fit placement rejected: %v", err)
	}
	if s.FreeFragments() != 0 {
		t.Fatalf("free = %d, want 0", s.FreeFragments())
	}
}

// TestStoreTable3ExactFit reproduces the §4 configuration at reduced
// scale proportions: D=1000, k=5, M=5, capacity 3000 cylinders, and
// 200 objects of 3000 subobjects exactly fill the farm.
func TestStoreTable3ExactFit(t *testing.T) {
	s := mustStore(t, mustLayout(t, 1000, 5), 3000, 201)
	for id := 0; id < 200; id++ {
		if _, err := s.Place(id, 5, 3000); err != nil {
			t.Fatalf("object %d did not fit: %v", id, err)
		}
	}
	if s.FreeFragments() != 0 {
		t.Fatalf("farm not exactly full: %d fragments free", s.FreeFragments())
	}
	if _, err := s.Place(200, 5, 3000); err == nil {
		t.Fatal("201st object accepted into a full farm")
	}
	// Evict one and the next fits again.
	if err := s.Evict(17); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(200, 5, 3000); err != nil {
		t.Fatalf("replacement placement failed: %v", err)
	}
}

func TestStoreResidentIDsSorted(t *testing.T) {
	s := mustStore(t, mustLayout(t, 10, 1), 1000, 10)
	for _, id := range []int{5, 1, 9, 3} {
		if _, err := s.Place(id, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ResidentIDs()
	want := []int{1, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ResidentIDs = %v, want %v", got, want)
		}
	}
}

// Property: used counters never go negative and free space is
// conserved across arbitrary place/evict sequences.
func TestStoreConservation(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		s, err := NewStore(Layout{D: 8, K: 3}, 50)
		if err != nil {
			return false
		}
		s.Reserve(16)
		placed := map[int]bool{}
		for _, op := range ops {
			id := int(op % 16)
			if placed[id] {
				if s.Evict(id) != nil {
					return false
				}
				placed[id] = false
			} else {
				if _, err := s.Place(id, int(op%3)+1, int(op%7)+1); err == nil {
					placed[id] = true
				}
			}
			total := 0
			for d := 0; d < 8; d++ {
				u := s.Used(d)
				if u < 0 || u > 50 {
					return false
				}
				total += 50 - u
			}
			if total != s.FreeFragments() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVDRStoreValidation(t *testing.T) {
	if _, err := NewVDRStore(10, 3, 100, 10); err == nil {
		t.Error("non-divisible D/M accepted")
	}
	if _, err := NewVDRStore(10, 5, 0, 10); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewVDRStore(10, 5, 100, -1); err == nil {
		t.Error("negative object count accepted")
	}
	v, err := NewVDRStore(10, 5, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 10} {
		if err := v.PlaceReplica(id, 0, 1); err == nil {
			t.Errorf("replica of id %d accepted on a catalog of 10", id)
		}
		if v.Resident(id) || v.HasReplicaOn(id, 0) {
			t.Errorf("out-of-range id %d reads resident", id)
		}
	}
	if v.ClusterFree(0) != 100 || v.UniqueResident() != 0 {
		t.Errorf("refused replicas changed the store: %d free, %d unique", v.ClusterFree(0), v.UniqueResident())
	}
}

func TestVDRStoreReplicaLifecycle(t *testing.T) {
	v, err := NewVDRStore(20, 5, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v.Clusters() != 4 {
		t.Fatalf("clusters = %d, want 4", v.Clusters())
	}
	if err := v.PlaceReplica(7, 1, 60); err != nil {
		t.Fatal(err)
	}
	if !v.Resident(7) || !v.HasReplicaOn(7, 1) {
		t.Fatal("replica not recorded")
	}
	if err := v.PlaceReplica(7, 1, 10); err == nil {
		t.Fatal("duplicate replica on same cluster accepted")
	}
	if err := v.PlaceReplica(7, 2, 60); err != nil {
		t.Fatal(err)
	}
	if got := len(v.Replicas(7)); got != 2 {
		t.Fatalf("replica count = %d, want 2", got)
	}
	if v.UniqueResident() != 1 {
		t.Fatal("unique resident count wrong")
	}
	if err := v.EvictReplica(7, 1, 60); err != nil {
		t.Fatal(err)
	}
	if v.HasReplicaOn(7, 1) || !v.Resident(7) {
		t.Fatal("wrong replica evicted")
	}
	if err := v.EvictReplica(7, 3, 60); err == nil {
		t.Fatal("evicting non-existent replica succeeded")
	}
	if err := v.EvictReplica(7, 2, 60); err != nil {
		t.Fatal(err)
	}
	if v.Resident(7) {
		t.Fatal("object still resident after last replica evicted")
	}
}

func TestVDRStoreCapacity(t *testing.T) {
	v, err := NewVDRStore(10, 5, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PlaceReplica(1, 0, 80); err != nil {
		t.Fatal(err)
	}
	if err := v.PlaceReplica(2, 0, 30); err == nil {
		t.Fatal("over-capacity replica accepted")
	}
	if err := v.PlaceReplica(2, 0, 20); err != nil {
		t.Fatalf("exact-fit replica rejected: %v", err)
	}
	if v.ClusterFree(0) != 0 {
		t.Fatalf("cluster free = %d, want 0", v.ClusterFree(0))
	}
}

func TestVDRStoreFindFreeCluster(t *testing.T) {
	v, err := NewVDRStore(15, 5, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PlaceReplica(1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := v.PlaceReplica(2, 1, 50); err != nil {
		t.Fatal(err)
	}
	c, ok := v.FindFreeCluster(3, 80)
	if !ok || c != 2 {
		t.Fatalf("FindFreeCluster = %d,%v, want cluster 2", c, ok)
	}
	// Prefers emptiest: for a 40-cylinder object, cluster 2 (100 free)
	// beats cluster 1 (50 free).
	c, ok = v.FindFreeCluster(3, 40)
	if !ok || c != 2 {
		t.Fatalf("FindFreeCluster(40) = %d,%v, want cluster 2", c, ok)
	}
	// Excludes clusters already holding a replica of the object.
	c, ok = v.FindFreeCluster(2, 40)
	if !ok || c != 2 {
		t.Fatalf("FindFreeCluster must skip existing replica cluster: got %d,%v", c, ok)
	}
	// Nothing fits a 101-cylinder object.
	if _, ok := v.FindFreeCluster(9, 101); ok {
		t.Fatal("impossible fit reported")
	}
}

// TestVDRTable3OneObjectPerCluster reproduces §4.1: "at most one
// object can be assigned to a cluster (the storage capacity of the
// cluster is exhausted by one object)".
func TestVDRTable3OneObjectPerCluster(t *testing.T) {
	v, err := NewVDRStore(1000, 5, 3000, 201)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 200; id++ {
		c, ok := v.FindFreeCluster(id, 3000)
		if !ok {
			t.Fatalf("no cluster for object %d", id)
		}
		if err := v.PlaceReplica(id, c, 3000); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := v.FindFreeCluster(200, 3000); ok {
		t.Fatal("201st object found space in a full farm")
	}
	if v.UniqueResident() != 200 {
		t.Fatalf("unique resident = %d, want 200", v.UniqueResident())
	}
}

func BenchmarkStorePlaceEvict(b *testing.B) {
	s := mustStore(b, mustLayout(b, 1000, 5), 3000, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Place(i, 5, 3000); err != nil {
			// Farm full: evict the oldest id still resident.
			_ = s.Evict(i - 200)
			if _, err := s.Place(i, 5, 3000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// A Place that probes every start and fails builds one error, however
// many starts it probes: the probe loop itself allocates nothing.
func TestStorePlaceFailureAllocs(t *testing.T) {
	allocs := func(d int) float64 {
		// Capacity 2 with one single-fragment object per disk leaves
		// a fragment free everywhere, so the n·m pre-check passes, but
		// the M=2, N=2 shape needs two on its middle disk at k=1.
		s := mustStore(t, mustLayout(t, d, 1), 2, d+1)
		for id := 0; id < d; id++ {
			if _, err := s.PlaceAt(id, id, 1, 1); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := s.Place(d, 2, 2); err == nil {
				t.Fatal("Place succeeded on a farm with no disk holding two fragments")
			}
		})
	}
	// The error costs a few allocations (more when the race detector
	// drops fmt's pooled printers); one per probe would be thousands.
	small, large := allocs(64), allocs(4096)
	if small > 8 || large > 8 {
		t.Errorf("failing Place allocations: %v at D=64, %v at D=4096; want a few, independent of D", small, large)
	}
}

// FuzzStorePlace checks the Store against FragmentsPerDisk over random
// farms and Place/PlaceAt/Evict sequences of mixed geometry: Used and
// FreeFragments always equal the resident placements' summed
// footprints, PlaceAt accepts exactly when the per-disk brute force
// says the object fits, and Place takes the first fitting start of the
// k-grid from its cursor, else the first fitting disk.  Ids are
// signed and run past the reserved range [0, 6): an id outside it is
// refused by every call.
func FuzzStorePlace(f *testing.F) {
	// Each op is 5 bytes: kind, id, degree, subobjects, start disk.
	f.Add(uint8(10), uint8(0), uint8(4), []byte{0, 1, 2, 3, 0, 1, 2, 2, 9, 4, 0, 3, 0, 4, 0, 2, 1, 0, 0, 0})  // k<M ramps
	f.Add(uint8(20), uint8(6), uint8(3), []byte{0, 1, 1, 5, 0, 1, 2, 0, 5, 3, 0, 3, 2, 2, 0, 2, 1, 0, 0, 0})  // k>M gaps
	f.Add(uint8(7), uint8(2), uint8(5), []byte{0, 1, 2, 30, 0, 1, 2, 1, 9, 6, 0, 4, 0, 12, 0, 2, 2, 0, 0, 0}) // n·k > D wraps
	f.Add(uint8(9), uint8(9), uint8(2), []byte{0, 0, 2, 3, 0, 0, 1, 2, 3, 0, 0, 2, 0, 4, 0, 2, 0, 0, 0, 0})   // k = D
	f.Add(uint8(9), uint8(0), uint8(0), []byte{0, 0, 0, 0, 0, 0, 1, 1, 0, 9})                                 // wrap onto a full disk 0
	f.Add(uint8(8), uint8(0), uint8(4), []byte{0, 255, 1, 1, 0, 1, 249, 1, 1, 0, 2, 255, 0, 0, 0})            // negative ids
	f.Add(uint8(8), uint8(0), uint8(4), []byte{0, 6, 1, 1, 0, 1, 7, 1, 1, 0, 2, 6, 0, 0, 0, 1, 5, 1, 1, 0})   // ids past the reserved range
	f.Fuzz(func(t *testing.T, dRaw, kRaw, capRaw uint8, ops []byte) {
		d := int(dRaw%40) + 1
		k := int(kRaw)%d + 1
		capacity := int(capRaw%12) + 1
		s, err := NewStore(Layout{D: d, K: k}, capacity)
		if err != nil {
			t.Fatal(err)
		}
		const reserved = 6
		s.Reserve(reserved)
		placed := map[int]Placement{}
		used := make([]int, d) // oracle: summed FragmentsPerDisk
		fitsAt := func(p Placement) bool {
			for disk, c := range p.FragmentsPerDisk() {
				if used[disk]+c > capacity {
					return false
				}
			}
			return true
		}
		// A bounded sequence keeps each input fast; 64 ops cycle the
		// 15 ids, -7 to 7, through place and evict many times over;
		// only 0 to 5 are in range.
		ops = ops[:min(len(ops), 64*5)]
		for ; len(ops) >= 5; ops = ops[5:] {
			id, m, n, first := int(int8(ops[1]))%8, int(ops[2])%d+1, int(ops[3]%40)+1, int(ops[4])%d
			switch ops[0] % 3 {
			case 0:
				p := Placement{Layout: s.layout, First: first, M: m, N: n}
				_, resident := placed[id]
				want := uint(id) < reserved && !resident && fitsAt(p)
				got, err := s.PlaceAt(id, first, m, n)
				if (err == nil) != want {
					t.Fatalf("PlaceAt(%d, %d, %d, %d) error %v, brute force fits=%v", id, first, m, n, err, want)
				}
				if err == nil {
					placed[id] = got
				}
			case 1:
				_, resident := placed[id]
				want := -1
				if uint(id) < reserved && !resident && n*m <= s.FreeFragments() {
					for try := 0; try < d && want < 0; try++ {
						if f := (s.cursor + try*k) % d; fitsAt(Placement{Layout: s.layout, First: f, M: m, N: n}) {
							want = f
						}
					}
					for f := 0; f < d && want < 0; f++ {
						if fitsAt(Placement{Layout: s.layout, First: f, M: m, N: n}) {
							want = f
						}
					}
				}
				got, err := s.Place(id, m, n)
				if (err == nil) != (want >= 0) || (err == nil && got.First != want) {
					t.Fatalf("Place(%d, %d, %d) = %+v, %v; brute force start %d", id, m, n, got, err, want)
				}
				if err == nil {
					placed[id] = got
				}
			case 2:
				_, resident := placed[id]
				if err := s.Evict(id); (err == nil) != resident {
					t.Fatalf("Evict(%d) error %v, resident %v", id, err, resident)
				}
				delete(placed, id)
			}
			for i := range used {
				used[i] = 0
			}
			total := 0
			for id, p := range placed {
				if got, ok := s.Placement(id); !ok || got != p {
					t.Fatalf("Placement(%d) = %+v, %v; want %+v", id, got, ok, p)
				}
				for disk, c := range p.FragmentsPerDisk() {
					used[disk] += c
				}
				total += p.TotalFragments()
			}
			for disk, u := range used {
				if s.Used(disk) != u || u > capacity {
					t.Fatalf("Used(%d) = %d, want %d (capacity %d)", disk, s.Used(disk), u, capacity)
				}
			}
			if want := d*capacity - total; s.FreeFragments() != want {
				t.Fatalf("FreeFragments = %d, want %d", s.FreeFragments(), want)
			}
			if s.ResidentCount() != len(placed) {
				t.Fatalf("ResidentCount = %d, want %d", s.ResidentCount(), len(placed))
			}
		}
	})
}
