package sched

import (
	"slices"
	"testing"

	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/vdisk"
)

// coalesceScan is Algorithm 2 as a scan over every buffering stream:
// the live fragmented displays in admission order, each stream's ideal
// disk recomputed, a stream moved when that disk is free.  It is the
// oracle the waiter pass (stripedTech.coalesce) is tested against.
// Slot order is not admission order — fragmented displays reuse pooled
// contiguous slots — so the displays are gathered from the arena and
// sorted by dSeq.
func (t *stripedTech) coalesceScan() {
	var live []int32
	for d, done := range t.dDone {
		if !done && t.dTmax[d] > 0 {
			live = append(live, int32(d))
		}
	}
	slices.SortFunc(live, func(a, b int32) int { return int(t.dSeq[a] - t.dSeq[b]) })
	for _, d := range live {
		base := int(d) * t.stride
		tau0, tmax := int(t.dTau0[d]), int(t.dTmax[d])
		first := int(t.dFirst[d])
		for i := 0; i < int(t.dM[d]); i++ {
			v := t.sVdisk[base+i]
			if v < 0 || int(t.sT[base+i]) == tmax {
				continue
			}
			ideal := vdisk.VirtualAt((first+i)%t.cfg.D, tau0+tmax, t.cfg.K, t.cfg.D)
			if ideal == int(v) || t.vbusy[ideal] != freeSlot {
				continue
			}
			t.moveStream(d, i, ideal)
		}
	}
}

// checkClaims asserts, after an interval, that every virtual disk is
// claimed by at most one live stream or by the staging write, that the
// claim is what vbusy records, that busy and freeBits agree with
// vbusy, and that a finished display holds no disk.
func checkClaims(t testing.TB, st *stripedTech, at int) {
	t.Helper()
	claim := make([]int32, st.cfg.D)
	for v := range claim {
		claim[v] = freeSlot
	}
	for d, done := range st.dDone {
		base := d * st.stride
		for si := base; si < base+int(st.dM[d]); si++ {
			v := st.sVdisk[si]
			if v < 0 {
				continue
			}
			if done {
				t.Fatalf("interval %d: finished display slot %d still holds virtual disk %d (stream %d)", at, d, v, si-base)
			}
			if claim[v] != freeSlot {
				t.Fatalf("interval %d: virtual disk %d is claimed by display slots %d and %d", at, v, claim[v], d)
			}
			claim[v] = int32(d)
		}
	}
	for _, v := range st.matVdisks {
		if claim[v] != freeSlot {
			t.Fatalf("interval %d: the staging write claims virtual disk %d, which owner %d holds", at, v, claim[v])
		}
		claim[v] = matOwner
	}
	busy := 0
	for v, c := range claim {
		if st.vbusy[v] != c {
			t.Fatalf("interval %d: virtual disk %d has owner %d in vbusy but is claimed by %d", at, v, st.vbusy[v], c)
		}
		if free := st.freeBits[v>>6]>>uint(v&63)&1 != 0; free != (c == freeSlot) {
			t.Fatalf("interval %d: virtual disk %d has free bit %v but owner %d", at, v, free, c)
		}
		if c != freeSlot {
			busy++
		}
	}
	if busy != st.busy {
		t.Fatalf("interval %d: %d virtual disks claimed, busy counter says %d", at, busy, st.busy)
	}
}

// checkWaiters asserts Algorithm 2's waiter lists after an interval:
// no stream sits on two lists or twice on one, a live entry sits on
// its ideal disk's list, every buffering stream that does not hold its
// ideal disk sits on that list, and a disk's waitBits bit is set iff
// its list is non-empty.  Stale entries (display ended, stream
// released or moved) may linger until a pass walks their list.
func checkWaiters(t testing.TB, st *stripedTech, at int) {
	t.Helper()
	if st.waitHead == nil {
		return
	}
	ideal := func(d int32, i int) int {
		return vdisk.VirtualAt((int(st.dFirst[d])+i)%st.cfg.D, int(st.dTau0[d]+st.dTmax[d]), st.cfg.K, st.cfg.D)
	}
	// buffering reports whether stream i of display d still has a move
	// to make: live, holding a disk, not yet on the display's clock.
	buffering := func(d int32, si int) bool {
		return !st.dDone[d] && st.sVdisk[si] >= 0 && st.sT[si] < st.dTmax[d]
	}
	on := make([]bool, len(st.sVdisk))
	for u, head := range st.waitHead {
		for s := head; s >= 0; s = st.sNext[s] {
			if on[s] {
				t.Fatalf("interval %d: stream %d is on two waiter lists, or twice on that of disk %d", at, s, u)
			}
			on[s] = true
			d, i := s/int32(st.stride), int(s)%st.stride
			if buffering(d, int(s)) && ideal(d, i) != u {
				t.Fatalf("interval %d: stream %d of display slot %d waits on disk %d, its ideal is %d", at, i, d, u, ideal(d, i))
			}
		}
		if set := st.waitBits[u>>6]>>uint(u&63)&1 != 0; set != (head >= 0) {
			t.Fatalf("interval %d: disk %d has waiter bit %v and list head %d", at, u, set, head)
		}
	}
	for d := range st.dDone {
		d := int32(d)
		if st.dTmax[d] == 0 {
			continue
		}
		for i := 0; i < int(st.dM[d]); i++ {
			si := int(d)*st.stride + i
			if buffering(d, si) && ideal(d, i) != int(st.sVdisk[si]) && !on[si] {
				t.Fatalf("interval %d: buffering stream %d of display slot %d is not on the waiter list of its ideal disk %d", at, i, d, ideal(d, i))
			}
		}
	}
}

// useCoalesceScan makes the technique run the scan oracle in place of
// the waiter pass.
func useCoalesceScan(st *stripedTech) { st.scanCoalesce = st.coalesceScan }

// staggeredCaseFrom is admissionCaseFrom with the technique forced to
// staggered striping, the only one that coalesces.
func staggeredCaseFrom(data []byte) admissionCase {
	c := admissionCaseFrom(data)
	if c.key != "staggered" {
		c.key, c.stride = "staggered", 1+int(c.cfg.Seed%uint64(c.cfg.D))
	}
	return c
}

// TestCoalesceMatchesScan is the differential oracle of the waiter
// pass: on random small staggered cases (Tmax bounds, mixed degrees,
// the cache with batching, every arrival mode, disk and tertiary
// faults and a member kill) it must make exactly the moves the scan
// over every buffering stream makes, in the same intervals and order,
// so that admissions, moves and completions interleave identically
// and the runs end in the same Result.
func TestCoalesceMatchesScan(t *testing.T) {
	const cases = 300
	src := rng.NewSource(20261018).Stream("coalesce-cases")
	ran, moves, killed, down := 0, 0, 0, 0
	for i := 0; i < cases; i++ {
		data := make([]byte, 64)
		for j := range data {
			data[j] = byte(src.Intn(256))
		}
		c := staggeredCaseFrom(data)
		run, ok := compareRuns(t, c, useCoalesceScan)
		if !ok {
			continue
		}
		ran++
		moves += run.moves
		if c.killAt > 0 {
			killed++
		}
		if run.down > 0 {
			down++
		}
	}
	t.Logf("%d of %d cases ran: %d moves, %d kills, %d cases with a down disk", ran, cases, moves, killed, down)
	// The comparison proves nothing on cases that never coalesce, never
	// kill a member or never run with a disk down.
	if ran < cases/2 || moves < 10*ran || killed == 0 || down == 0 {
		t.Fatalf("weak coverage: %d of %d cases ran, %d moves, %d kills, %d cases with a down disk",
			ran, cases, moves, killed, down)
	}
}

// FuzzCoalesce is TestCoalesceMatchesScan on fuzzed cases.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 4, 20, 10, 2, 3, 40, 10, 7, 10, 100, 5, 3, 4, 1, 2})
	f.Add([]byte{30, 5, 30, 12, 1, 2, 47, 8, 9, 0, 200, 20, 0, 8, 127, 1, 3, 2, 4, 5, 2, 3, 1, 2, 1, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		compareRuns(t, staggeredCaseFrom(data), useCoalesceScan)
	})
}

// checkReleases asserts the release calendar before interval now runs.
// An entry is live when finishDue would release its stream: the stream
// holds a disk and the interval its slot drains at next is the
// stream's own end, τ0 + T_i + Subobjects.  A live entry addresses a
// stream of an unfinished display that buffers ahead of it (T_i <
// Tmax); the live entries of a slot rise in (admission sequence,
// stream), the order start adds them in; and every stream still
// buffering has exactly one live entry.  Streams with T_i = Tmax,
// contiguous or moved, end with the display and have none.
func checkReleases(t testing.TB, st *stripedTech, now int) {
	t.Helper()
	slots := st.releases.slots
	h := len(slots)
	entries := make([]int, len(st.sVdisk))
	for b, refs := range slots {
		at := now + ((b-now)%h+h)%h // the interval slot b drains at next
		last := streamRef{slot: -1}
		for _, ref := range refs {
			d := ref.slot
			si := int(d)*st.stride + int(ref.i)
			if st.sVdisk[si] < 0 || at != int(st.dTau0[d])+int(st.sT[si])+st.cfg.Subobjects {
				continue // stale
			}
			if st.dDone[d] || st.sT[si] >= st.dTmax[d] {
				t.Fatalf("interval %d: live release of stream %d of display slot %d (done %v, T %d, Tmax %d), due %d",
					now, ref.i, d, st.dDone[d], st.sT[si], st.dTmax[d], at)
			}
			if last.slot >= 0 && (st.dSeq[d] < st.dSeq[last.slot] || st.dSeq[d] == st.dSeq[last.slot] && ref.i <= last.i) {
				t.Fatalf("interval %d: the releases due %d are out of (admission, stream) order at stream %d of display slot %d",
					now, at, ref.i, d)
			}
			last = ref
			entries[si]++
		}
	}
	for d, done := range st.dDone {
		for i := 0; i < int(st.dM[d]); i++ {
			si := d*st.stride + i
			want := 0
			if !done && st.sVdisk[si] >= 0 && st.sT[si] < st.dTmax[d] {
				want = 1
			}
			if entries[si] != want {
				t.Fatalf("interval %d: stream %d of display slot %d (T %d, Tmax %d) has %d live releases, want %d",
					now, i, d, st.sT[si], st.dTmax[d], entries[si], want)
			}
		}
	}
}

// TestCoalescedRescheduleOrder runs a staggered configuration whose
// fragmented displays coalesce their early streams.  A moved stream
// then ends with its display, its own release entry stale; the run
// must exercise that path (coalescings > 0), and a stale entry taken
// for a live one, or a stream released twice, would show as a phantom
// hiccup.
func TestCoalescedRescheduleOrder(t *testing.T) {
	cfg := smallConfig(48, 20)
	cfg.Seed = 3
	e, err := NewEngine(cfg, &stripedTech{staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if e.win.Coalescings == 0 {
		t.Fatal("config never coalesced a stream; the stale-release path was not exercised")
	}
	if res.Hiccups != 0 {
		t.Errorf("coalesced releases produced %d phantom hiccups", res.Hiccups)
	}
}
