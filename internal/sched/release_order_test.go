package sched

import (
	"reflect"
	"sort"
	"testing"

	"github.com/mmsim/staggered/internal/rng"
)

// TestSortReleases pins the bucket re-sort finishDue relies on:
// coalescing reschedules stream releases out of admission order, and
// hiccup accounting must match a full in-order scan, so a drained
// bucket is restored to (admission sequence, stream index) order
// before applying.  The reference is the definitionally-correct
// sort.SliceStable over the same key.
func TestSortReleases(t *testing.T) {
	s := rng.NewSource(99).Stream("sortReleases")
	for trial := 0; trial < 200; trial++ {
		// A handful of display slots with distinct admission sequences.
		// Slot indexes deliberately do NOT follow sequence order — slots
		// recycle in real runs, so the sort must key on dSeq, not slot.
		slots := 1 + s.Intn(8)
		dSeq := make([]int32, slots)
		perm := s.Perm(slots)
		for i, p := range perm {
			dSeq[i] = int32(p * 3)
		}
		n := s.Intn(20)
		refs := make([]streamRef, n)
		for i := range refs {
			refs[i] = streamRef{slot: int32(s.Intn(slots)), i: int32(s.Intn(5))}
		}
		want := make([]streamRef, n)
		copy(want, refs)
		sort.SliceStable(want, func(a, b int) bool {
			if dSeq[want[a].slot] != dSeq[want[b].slot] {
				return dSeq[want[a].slot] < dSeq[want[b].slot]
			}
			return want[a].i < want[b].i
		})
		sortReleases(refs, dSeq)
		if !reflect.DeepEqual(refs, want) {
			t.Fatalf("trial %d: sortReleases diverged from reference\n got: %v\nwant: %v\ndSeq: %v",
				trial, refs, want, dSeq)
		}
	}
}

// TestCoalescedRescheduleOrder forces the out-of-order case end to
// end: a staggered configuration with Algorithms 1+2 enabled admits
// fragmented displays and coalesces their early streams, appending
// rescheduled releases behind younger displays' entries in the same
// bucket.  The run must actually exercise that path (coalescings > 0)
// and the re-sorted drain must keep release accounting clean — a
// mis-ordered or double-applied release shows up as a phantom hiccup.
func TestCoalescedRescheduleOrder(t *testing.T) {
	cfg := smallConfig(48, 20)
	cfg.Seed = 3
	e, err := NewEngine(cfg, &stripedTech{staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if e.coalescings == 0 {
		t.Fatal("config never coalesced a stream; the out-of-order path was not exercised")
	}
	if res.Hiccups != 0 {
		t.Errorf("coalesced releases produced %d phantom hiccups", res.Hiccups)
	}
}
