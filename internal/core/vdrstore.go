package core

import (
	"fmt"
	"sort"
)

// VDRStore is the storage allocator for the virtual data replication
// baseline [GS93]: the D disks are partitioned into R = D/M physical
// clusters, every object is declustered across the disks of exactly
// one cluster, and hot objects may be replicated onto additional
// clusters.  Within a cluster an object occupies n contiguous
// cylinders on each disk (n = number of subobjects).
//
// The replica table is a dense slice indexed by object id, sized at
// build for the catalog's ids [0, objects), and both
// index directions (object -> clusters, cluster -> objects) are kept
// sorted ascending, so the scheduler's per-interval probes need
// neither map lookups nor per-call copies.
type VDRStore struct {
	clusters  int
	capacity  int     // fragments (cylinders) per disk
	used      []int   // per-cluster used cylinders per member disk
	replicas  [][]int // object id -> clusters holding a copy, sorted
	unique    int     // objects with at least one replica
	onCluster [][]int // reverse index: cluster -> resident object ids, sorted
}

// NewVDRStore returns a VDRStore for d disks grouped into clusters of
// m, each disk holding capacityFragments fragments, over a catalog of
// objects ids.
func NewVDRStore(d, m, capacityFragments, objects int) (*VDRStore, error) {
	if m <= 0 || d <= 0 || d%m != 0 {
		return nil, fmt.Errorf("core: VDR needs D (%d) to be a positive multiple of M (%d)", d, m)
	}
	if capacityFragments <= 0 {
		return nil, fmt.Errorf("core: per-disk capacity %d must be positive", capacityFragments)
	}
	if objects < 0 {
		return nil, fmt.Errorf("core: object count %d is negative", objects)
	}
	return &VDRStore{
		clusters:  d / m,
		capacity:  capacityFragments,
		used:      make([]int, d/m),
		replicas:  make([][]int, objects),
		onCluster: make([][]int, d/m),
	}, nil
}

// replicasOf returns the (possibly nil) replica list of id, nil for an
// id outside the catalog.
func (v *VDRStore) replicasOf(id int) []int {
	if uint(id) >= uint(len(v.replicas)) {
		return nil
	}
	return v.replicas[id]
}

// Clusters returns R, the number of clusters.
func (v *VDRStore) Clusters() int { return v.clusters }

// Replicas returns the clusters holding copies of object id, in
// ascending cluster order.  The caller must not mutate the result.
func (v *VDRStore) Replicas(id int) []int { return v.replicasOf(id) }

// Resident reports whether at least one replica of id exists.
func (v *VDRStore) Resident(id int) bool { return len(v.replicasOf(id)) > 0 }

// UniqueResident returns the number of distinct resident objects —
// the quantity the paper contrasts with striping: replication reduces
// it.
func (v *VDRStore) UniqueResident() int { return v.unique }

// ClusterFree returns the free cylinders per member disk of cluster c.
func (v *VDRStore) ClusterFree(c int) int { return v.capacity - v.used[c] }

// HasReplicaOn reports whether cluster c holds a replica of id.
func (v *VDRStore) HasReplicaOn(id, c int) bool {
	rs := v.replicasOf(id)
	i := sort.SearchInts(rs, c)
	return i < len(rs) && rs[i] == c
}

// insertSorted inserts x into the ascending slice s, keeping order.
func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// removeSorted removes x from the ascending slice s, keeping order.
// It reports whether x was present.
func removeSorted(s []int, x int) ([]int, bool) {
	i := sort.SearchInts(s, x)
	if i >= len(s) || s[i] != x {
		return s, false
	}
	return append(s[:i], s[i+1:]...), true
}

// PlaceReplica stores a replica of object id (n subobjects) on
// cluster c.  Each member disk needs n free cylinders.
func (v *VDRStore) PlaceReplica(id, c, n int) error {
	if uint(id) >= uint(len(v.replicas)) {
		return fmt.Errorf("core: object id %d out of range [0, %d)", id, len(v.replicas))
	}
	if c < 0 || c >= v.clusters {
		return fmt.Errorf("core: cluster %d out of range [0, %d)", c, v.clusters)
	}
	if n <= 0 {
		return fmt.Errorf("core: replica needs at least one subobject, got %d", n)
	}
	if v.HasReplicaOn(id, c) {
		return fmt.Errorf("core: object %d already has a replica on cluster %d", id, c)
	}
	if v.used[c]+n > v.capacity {
		return fmt.Errorf("core: cluster %d has %d free cylinders, object %d needs %d",
			c, v.ClusterFree(c), id, n)
	}
	v.used[c] += n
	if len(v.replicas[id]) == 0 {
		v.unique++
	}
	v.replicas[id] = insertSorted(v.replicas[id], c)
	v.onCluster[c] = insertSorted(v.onCluster[c], id)
	return nil
}

// ObjectsOn returns the ids of objects with a replica on cluster c,
// in ascending id order.  The caller must not mutate the result.
func (v *VDRStore) ObjectsOn(c int) []int { return v.onCluster[c] }

// EvictReplica removes the replica of id on cluster c, freeing n
// cylinders per member disk.
func (v *VDRStore) EvictReplica(id, c, n int) error {
	rs, found := removeSorted(v.replicasOf(id), c)
	if !found {
		return fmt.Errorf("core: object %d has no replica on cluster %d", id, c)
	}
	v.replicas[id] = rs
	if len(rs) == 0 {
		v.unique--
	}
	v.used[c] -= n
	if v.used[c] < 0 {
		return fmt.Errorf("core: cluster %d usage went negative", c)
	}
	v.onCluster[c], _ = removeSorted(v.onCluster[c], id)
	return nil
}

// FindFreeCluster returns a cluster with at least n free cylinders per
// disk and no replica of id, preferring the emptiest; ok is false when
// none exists.
func (v *VDRStore) FindFreeCluster(id, n int) (cluster int, ok bool) {
	best, bestFree := -1, -1
	for c := 0; c < v.clusters; c++ {
		free := v.ClusterFree(c)
		if free >= n && !v.HasReplicaOn(id, c) && free > bestFree {
			best, bestFree = c, free
		}
	}
	return best, best >= 0
}
