package vdisk

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestPhysicalMotion(t *testing.T) {
	// A virtual disk shifts by k each interval, modulo D.
	cases := []struct{ z, t, k, d, want int }{
		{0, 0, 1, 8, 0},
		{6, 1, 1, 8, 7},
		{6, 2, 1, 8, 0}, // the Figure 6 wrap: disk 6 reaches disk 0 at t=2
		{3, 4, 5, 12, 11},
		{3, 100, 5, 12, (3 + 500) % 12},
	}
	for _, c := range cases {
		if got := Physical(c.z, c.t, c.k, c.d); got != c.want {
			t.Errorf("Physical(%d,%d,%d,%d) = %d, want %d", c.z, c.t, c.k, c.d, got, c.want)
		}
	}
}

func TestVirtualAtInvertsPhysical(t *testing.T) {
	err := quick.Check(func(zRaw, tRaw, kRaw, dRaw uint16) bool {
		d := int(dRaw%100) + 1
		k := int(kRaw)%d + 1
		z := int(zRaw) % d
		tt := int(tRaw) % 5000
		return VirtualAt(Physical(z, tt, k, d), tt, k, d) == z
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFirstAlignment(t *testing.T) {
	// Figure 6: virtual disk 6 reaches disk 0 (k=1, D=8) at t=2.
	if got, ok := FirstAlignment(6, 0, 1, 8); !ok || got != 2 {
		t.Errorf("FirstAlignment(6,0,1,8) = %d,%v, want 2,true", got, ok)
	}
	// Already in position.
	if got, ok := FirstAlignment(3, 3, 1, 8); !ok || got != 0 {
		t.Errorf("FirstAlignment(3,3,1,8) = %d,%v, want 0,true", got, ok)
	}
	// Misaligned residue class with gcd(k,D) = 5: virtual disk 0 only
	// visits multiples of 5 on a 10-disk farm with stride 5.
	if _, ok := FirstAlignment(0, 3, 5, 10); ok {
		t.Error("impossible alignment reported as reachable")
	}
	if got, ok := FirstAlignment(0, 5, 5, 10); !ok || got != 1 {
		t.Errorf("FirstAlignment(0,5,5,10) = %d,%v, want 1,true", got, ok)
	}
}

func TestFirstAlignmentAgainstBruteForce(t *testing.T) {
	err := quick.Check(func(zRaw, targetRaw, kRaw, dRaw uint8) bool {
		d := int(dRaw%50) + 1
		k := int(kRaw)%d + 1
		z := int(zRaw) % d
		target := int(targetRaw) % d
		got, ok := FirstAlignment(z, target, k, d)
		// Brute force over one full orbit.
		want, found := -1, false
		for tt := 0; tt < d; tt++ {
			if Physical(z, tt, k, d) == target {
				want, found = tt, true
				break
			}
		}
		if found != ok {
			return false
		}
		return !ok || got == want
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFigure6Assignment reproduces the admission of §3.2.1/Figure 6:
// D=8, k=1, object X with M=2 starting on disk 0; disks 1 and 6 are
// free.  Disk 1 reads fragment X0.1 immediately and buffers it two
// intervals; disk 6 is in position for X0.0 at interval 2, when
// delivery begins.
func TestFigure6Assignment(t *testing.T) {
	a, ok := ChooseVirtualDisks(8, 1, 0, 2, []int{1, 6})
	if !ok {
		t.Fatal("no assignment found")
	}
	if a.Z[0] != 6 || a.Z[1] != 1 {
		t.Fatalf("Z = %v, want [6 1]", a.Z)
	}
	if a.T[0] != 2 || a.T[1] != 0 || a.Tmax != 2 {
		t.Fatalf("T = %v, Tmax = %d; want [2 0], 2", a.T, a.Tmax)
	}
	if a.WOffset(1) != 2 || a.WOffset(0) != 0 {
		t.Fatalf("w_offsets = %d,%d, want 0,2", a.WOffset(0), a.WOffset(1))
	}
	if a.Contiguous() {
		t.Fatal("fragmented assignment reported contiguous")
	}
	if a.MaxBuffers() != 2 {
		t.Fatalf("MaxBuffers = %d, want 2", a.MaxBuffers())
	}
}

func TestContiguousAssignment(t *testing.T) {
	// Disks 4,5,6 in position for an object starting at disk 4.
	a, ok := ChooseVirtualDisks(12, 1, 4, 3, []int{4, 5, 6})
	if !ok {
		t.Fatal("no assignment found")
	}
	if !a.Contiguous() || a.Tmax != 0 || a.MaxBuffers() != 0 {
		t.Fatalf("in-position adjacent disks should be contiguous: %+v", a)
	}
}

func TestNewAssignmentValidation(t *testing.T) {
	if _, err := NewAssignment(8, 1, 0, 2, []int{1}); err == nil {
		t.Error("wrong-length Z accepted")
	}
	if _, err := NewAssignment(8, 1, 9, 2, []int{1, 2}); err == nil {
		t.Error("out-of-range first disk accepted")
	}
	if _, err := NewAssignment(8, 1, 0, 2, []int{1, 1}); err == nil {
		t.Error("duplicate virtual disk accepted")
	}
	if _, err := NewAssignment(8, 1, 0, 2, []int{1, 8}); err == nil {
		t.Error("out-of-range virtual disk accepted")
	}
	// gcd misalignment: with k=5, D=10, a virtual disk on an even
	// residue cannot reach an odd target.
	if _, err := NewAssignment(10, 5, 0, 2, []int{0, 2}); err == nil {
		t.Error("unreachable fragment accepted")
	}
}

func TestChooseVirtualDisksInfeasible(t *testing.T) {
	if _, ok := ChooseVirtualDisks(8, 1, 0, 3, []int{1, 6}); ok {
		t.Error("chose 3 virtual disks from a 2-disk free set")
	}
	// k=5, D=10: free disks all on the even orbit cannot serve
	// fragment 1 (odd residue).
	if _, ok := ChooseVirtualDisks(10, 5, 0, 2, []int{0, 2, 4}); ok {
		t.Error("chose misaligned virtual disks")
	}
}

// TestChooseVirtualDisksInvalidInput pins the API boundary: malformed
// geometry or free lists are refused with ok=false, never a panic.
func TestChooseVirtualDisksInvalidInput(t *testing.T) {
	free := []int{0, 1, 2, 3}
	cases := []struct {
		name           string
		d, k, first, m int
		free           []int
	}{
		{"zero D", 0, 1, 0, 1, free},
		{"negative D", -8, 1, 0, 1, free},
		{"zero k", 8, 0, 0, 1, free},
		{"negative k", 8, -1, 0, 1, free},
		{"zero m", 8, 1, 0, 0, free},
		{"negative m", 8, 1, 0, -2, free},
		{"m beyond D", 4, 1, 0, 5, free},
		{"negative first", 8, 1, -1, 2, free},
		{"first at D", 8, 1, 8, 2, free},
		{"free entry negative", 8, 1, 0, 2, []int{0, 1, -1}},
		{"free entry at D", 8, 1, 0, 2, []int{0, 1, 8}},
	}
	for _, c := range cases {
		if a, ok := ChooseVirtualDisks(c.d, c.k, c.first, c.m, c.free); ok {
			t.Errorf("%s: accepted, got %+v", c.name, a)
		}
	}
}

// oracleChoose is the per-candidate greedy ChooseVirtualDisks ran
// before the orbit walk: for each stream, scan every free disk, solve
// its alignment delay, and keep the strict minimum in free-list order.
func oracleChoose(d, k, first, m int, free []int) (Assignment, bool) {
	used := make(map[int]bool, m)
	z := make([]int, m)
	for i := 0; i < m; i++ {
		best, bestT := -1, -1
		for _, f := range free {
			if used[f] {
				continue
			}
			t, ok := FirstAlignment(f, (first+i)%d, k, d)
			if !ok {
				continue
			}
			if best < 0 || t < bestT {
				best, bestT = f, t
			}
		}
		if best < 0 {
			return Assignment{}, false
		}
		used[best] = true
		z[i] = best
	}
	a, err := NewAssignment(d, k, first, m, z)
	return a, err == nil
}

// spanCoverage counts how the walks checkWalkAgainstOracle ran ended:
// refused by the span count, refused by the walk after the count let
// them through, and span-count refusals whose span wrapped past the
// last position of a farm wider than one bitset word.
type spanCoverage struct {
	refused, walkFailed, wrapped int
}

// checkWalkAgainstOracle runs the orbit walk through
// ChooseVirtualDisks (unbounded) and directly under each bound in
// maxTs, and reports any difference from the oracle in (ok, Z, T,
// Tmax), or a span-count verdict that differs from a position-by-
// position count of the span.  cov, when not nil, counts the outcomes.
func checkWalkAgainstOracle(cov *spanCoverage, d, k, first, m int, free []int, maxTs ...int) error {
	want, wantOK := oracleChoose(d, k, first, m, free)
	got, gotOK := ChooseVirtualDisks(d, k, first, m, free)
	if gotOK != wantOK || (wantOK && !reflect.DeepEqual(got, want)) {
		return fmt.Errorf("ChooseVirtualDisks(%d,%d,%d,%d,%v) = %+v,%v; oracle %+v,%v",
			d, k, first, m, free, got, gotOK, want, wantOK)
	}
	set := make([]uint64, (d+63)/64)
	for _, f := range free {
		set[f>>6] |= 1 << uint(f&63)
	}
	z, ts := make([]int, m), make([]int, m)
	for _, maxT := range maxTs {
		// Under a startup bound the engine refuses what the oracle
		// chooses with a larger Tmax.
		boundOK := wantOK && want.Tmax <= maxT
		tmax, ok := WalkOrbits(set, d, k, first, maxT, z, ts)
		if ok != boundOK || (ok && (tmax != want.Tmax || !slices.Equal(z, want.Z) || !slices.Equal(ts, want.T))) {
			return fmt.Errorf("WalkOrbits(d=%d,k=%d,first=%d,m=%d,maxT=%d,free=%v) = Z%v T%v Tmax %d ok %v; oracle %+v,%v",
				d, k, first, m, maxT, free, z, ts, tmax, ok, want, boundOK)
		}
		short := spanShort(set, d, k%d, first, maxT, m)
		span := maxT*(k%d) + m // the reachable positions, when ≤ d
		if maxT >= 0 && maxT < d && span <= d {
			n := 0
			for j := 0; j < span; j++ {
				p := ((first-maxT*(k%d)+j)%d + d) % d
				n += int(set[p>>6] >> uint(p&63) & 1)
			}
			if short != (n < m) {
				return fmt.Errorf("spanShort(d=%d,k=%d,first=%d,maxT=%d,m=%d,free=%v) = %v, but the span of %d positions holds %d free",
					d, k, first, maxT, m, free, short, span, n)
			}
		} else if short {
			return fmt.Errorf("spanShort(d=%d,k=%d,first=%d,maxT=%d,m=%d) refused a span it should leave to the walk",
				d, k, first, maxT, m)
		}
		if cov == nil {
			continue
		}
		switch {
		case short:
			cov.refused++
			if lo := first - maxT*(k%d); d > 64 && (lo < 0 || lo+span > d) {
				cov.wrapped++
			}
		case !ok:
			cov.walkFailed++
		}
	}
	return nil
}

// walkFarms are the farm sizes TestWalkMatchesOracle checks: every
// size up to one bitset word, then sizes around and past the word
// boundaries, where the span count splits across words and wraps.
var walkFarms = func() []int {
	var ds []int
	for d := 1; d <= 64; d++ {
		ds = append(ds, d)
	}
	return append(ds, 65, 127, 128, 129, 200, 256)
}()

// TestWalkMatchesOracle is the differential property: over the strides
// of small farms (every stride up to 64 disks, gcd(k, D) > 1 included),
// random free subsets with duplicates, and startup bounds below, at and
// above one orbit, the walk returns exactly the oracle's (ok, Z, T,
// Tmax).  It fails unless the span count both refused walks, wrapped
// multi-word spans among them, and let through walks that then failed.
func TestWalkMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var cov spanCoverage
	for _, d := range walkFarms {
		strides := d
		if d > 64 {
			strides = 16 // the small farms cover every stride
		}
		for j := 0; j < strides; j++ {
			k := j + 1
			if j >= 8 && d > 64 {
				k = 1 + r.IntN(d)
			}
			orbit := d / gcd(k, d)
			for trial := 0; trial < 4; trial++ {
				m := 1 + r.IntN(d)
				first := r.IntN(d)
				free := make([]int, r.IntN(2*d+1))
				for i := range free {
					free[i] = r.IntN(d)
				}
				if err := checkWalkAgainstOracle(&cov, d, k, first, m, free,
					0, orbit/2, orbit-2, orbit-1, orbit, 2*orbit); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	t.Logf("span count refused %d walks (%d wrapped past a multi-word farm); %d more failed in the walk",
		cov.refused, cov.wrapped, cov.walkFailed)
	if cov.refused == 0 || cov.wrapped == 0 || cov.walkFailed == 0 {
		t.Fatalf("coverage floor missed: %+v", cov)
	}
}

// FuzzChooseVirtualDisks drives the same differential check from fuzz
// input, on farms of up to 256 disks so the span count's multi-word
// and wrap-around paths run: geometry bytes plus a free list of one
// byte per entry.
func FuzzChooseVirtualDisks(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(0), uint8(2), uint8(16), []byte{1, 6})
	f.Add(uint8(10), uint8(5), uint8(0), uint8(2), uint8(1), []byte{0, 2, 4})
	f.Add(uint8(50), uint8(4), uint8(7), uint8(5), uint8(10), []byte{3, 3, 9, 21, 40, 48})
	f.Add(uint8(50), uint8(10), uint8(49), uint8(5), uint8(10), []byte{0, 10, 20, 30, 45})
	f.Add(uint8(199), uint8(2), uint8(3), uint8(4), uint8(20), []byte{150, 170, 190, 199, 1, 70, 130})
	f.Fuzz(func(t *testing.T, dRaw, kRaw, firstRaw, mRaw, maxT uint8, freeRaw []byte) {
		d := int(dRaw) + 1
		k := int(kRaw)%d + 1
		first := int(firstRaw) % d
		m := int(mRaw)%d + 1
		free := make([]int, len(freeRaw))
		for i, b := range freeRaw {
			free[i] = int(b) % d
		}
		if err := checkWalkAgainstOracle(nil, d, k, first, m, free, int(maxT)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWalkOrbitsAllocates pins the admission path's walk at zero
// allocations.
func TestWalkOrbitsAllocates(t *testing.T) {
	const d = 1000
	set := make([]uint64, (d+63)/64)
	for p := 0; p < d; p += 7 {
		set[p>>6] |= 1 << uint(p&63)
	}
	z, ts := make([]int, 5), make([]int, 5)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := WalkOrbits(set, d, 1, 3, d, z, ts); !ok {
			t.Fatal("infeasible")
		}
	})
	if allocs != 0 {
		t.Fatalf("WalkOrbits allocated %v times per run, want 0", allocs)
	}
}

// TestFigure6DeliveryTimeline replays the full Figure 6 narrative.
func TestFigure6DeliveryTimeline(t *testing.T) {
	a, ok := ChooseVirtualDisks(8, 1, 0, 2, []int{1, 6})
	if !ok {
		t.Fatal("no assignment")
	}
	del, err := NewDelivery(a, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	// Step to interval 5 (execute intervals 0..4).
	for i := 0; i < 5; i++ {
		if err := del.Step(); err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
	}
	// "By the start of time interval 5, fragments X3.1 and X4.1 are
	// already buffered": stream 1 has read 0..4 and delivered 0..2.
	reads := map[[2]int]int{} // {frag, subobject} -> interval
	for _, act := range del.Actions() {
		if act.Read {
			reads[[2]int{act.Frag, act.Subobject}] = act.Interval
		}
	}
	if got := reads[[2]int{1, 0}]; got != 0 {
		t.Errorf("X0.1 read at %d, want 0", got)
	}
	if got := reads[[2]int{1, 1}]; got != 1 {
		t.Errorf("X1.1 read at %d, want 1 (paper: disk 2 reads X1.1 at time 1)", got)
	}
	if got := reads[[2]int{0, 0}]; got != 2 {
		t.Errorf("X0.0 read at %d, want 2", got)
	}

	// "at time interval 5, the 2 intervening disks have completed":
	// coalesce fragment 1 onto virtual disk 7 (adjacent to 6).
	if err := del.Coalesce(1, 7); err != nil {
		t.Fatalf("coalesce: %v", err)
	}
	if _, err := del.Run(); err != nil {
		t.Fatal(err)
	}
	if del.Coalescings() != 1 {
		t.Fatal("coalescing not counted")
	}

	// Rebuild the action index with the full trace.
	outs := map[[2]int]Action{}
	reads = map[[2]int]int{}
	for _, act := range del.Actions() {
		if act.Read {
			reads[[2]int{act.Frag, act.Subobject}] = act.Interval
		} else {
			outs[[2]int{act.Frag, act.Subobject}] = act
		}
	}
	// "During time intervals 5 and 6, fragments X3.1 and X4.1 are
	// delivered from buffers while fragments X3.0 and X4.0 are
	// delivered directly from disk."
	for s := 3; s <= 4; s++ {
		o1 := outs[[2]int{1, s}]
		if o1.Interval != s+2 || !o1.Buffered {
			t.Errorf("X%d.1 delivery = interval %d buffered=%v, want %d from buffer", s, o1.Interval, o1.Buffered, s+2)
		}
		o0 := outs[[2]int{0, s}]
		if o0.Interval != s+2 || o0.Buffered {
			t.Errorf("X%d.0 delivery = interval %d buffered=%v, want %d pipelined", s, o0.Interval, o0.Buffered, s+2)
		}
	}
	// "Starting at time 7, the coalescing has been completed and the 2
	// consecutive disks pipeline the fragments directly from the disk."
	if got := reads[[2]int{1, 5}]; got != 7 {
		t.Errorf("X5.1 read at %d, want 7", got)
	}
	for s := 5; s < 8; s++ {
		for f := 0; f < 2; f++ {
			o := outs[[2]int{f, s}]
			if o.Interval != s+2 || o.Buffered {
				t.Errorf("X%d.%d delivery = interval %d buffered=%v, want %d pipelined",
					s, f, o.Interval, o.Buffered, s+2)
			}
		}
	}
	// After coalescing, fragment 1 is served by virtual disk 7,
	// adjacent to virtual disk 6.
	last := outs[[2]int{1, 7}]
	if last.VDisk != 7 {
		t.Errorf("final X.1 stream on virtual disk %d, want 7", last.VDisk)
	}
}

func TestDeliveryHiccupFreeProperty(t *testing.T) {
	// Property: any feasible assignment delivers all n subobjects
	// without hiccup, finishing exactly at Tmax + n - 1.
	err := quick.Check(func(dRaw, kRaw, mRaw, nRaw, firstRaw, permRaw uint8) bool {
		d := int(dRaw%12) + 2
		k := int(kRaw)%d + 1
		m := int(mRaw)%(d/2+1) + 1
		if m > d {
			m = d
		}
		n := int(nRaw%20) + 1
		first := int(firstRaw) % d
		// Free set: all disks (always feasible when alignment exists).
		free := make([]int, d)
		for i := range free {
			free[i] = (i + int(permRaw)) % d
		}
		a, ok := ChooseVirtualDisks(d, k, first, m, free)
		if !ok {
			return true // infeasible geometry (gcd misalignment)
		}
		del, err := NewDelivery(a, n, false)
		if err != nil {
			return false
		}
		end, err := del.Run()
		return err == nil && end == a.Tmax+n-1
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryBufferBound(t *testing.T) {
	// The peak buffer population never exceeds the assignment's
	// MaxBuffers plus the M fragments in flight during an interval.
	a, ok := ChooseVirtualDisks(16, 1, 0, 4, []int{2, 5, 9, 14})
	if !ok {
		t.Fatal("no assignment")
	}
	del, err := NewDelivery(a, 40, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := del.Run(); err != nil {
		t.Fatal(err)
	}
	if del.MaxBuffered() > a.MaxBuffers()+a.M {
		t.Fatalf("peak buffers %d exceeded bound %d", del.MaxBuffered(), a.MaxBuffers()+a.M)
	}
}

func TestCoalesceRejectsLateDisk(t *testing.T) {
	// A new virtual disk that aligns too late must be rejected, since
	// the backlog cannot cover the quiet period.
	a, err := NewAssignment(8, 1, 0, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	del, err := NewDelivery(a, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := del.Step(); err != nil { // interval 0: reads X0.0/X0.1, delivers X0
		t.Fatal(err)
	}
	// Virtual disk 3 reaches fragment 1's next disk (subobject 1 at
	// disk 2) seven intervals from now — far past delivery time.
	if err := del.Coalesce(1, 3); err == nil {
		t.Fatal("late coalesce accepted")
	}
}

func TestCoalesceValidation(t *testing.T) {
	a, err := NewAssignment(8, 1, 0, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	del, err := NewDelivery(a, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := del.Coalesce(5, 3); err == nil {
		t.Error("out-of-range fragment accepted")
	}
	if err := del.Coalesce(1, 0); err == nil {
		t.Error("coalescing onto an in-use virtual disk accepted")
	}
}

func TestNewDeliveryValidation(t *testing.T) {
	a, err := NewAssignment(8, 1, 0, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDelivery(a, 0, false); err == nil {
		t.Error("zero subobjects accepted")
	}
}

func TestStepAfterDoneErrors(t *testing.T) {
	a, err := NewAssignment(4, 1, 0, 1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	del, err := NewDelivery(a, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := del.Run(); err != nil {
		t.Fatal(err)
	}
	if err := del.Step(); err == nil {
		t.Error("Step after completion succeeded")
	}
}

// TestDeliveryWithStrideEqualsM exercises simple striping's delivery
// through the same machinery: adjacent in-position disks, stride M.
func TestDeliveryWithStrideEqualsM(t *testing.T) {
	a, ok := ChooseVirtualDisks(9, 3, 0, 3, []int{0, 1, 2})
	if !ok {
		t.Fatal("no assignment")
	}
	if !a.Contiguous() {
		t.Fatal("simple-striping admission should be contiguous")
	}
	del, err := NewDelivery(a, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	end, err := del.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 11 {
		t.Fatalf("display of 12 subobjects ended at interval %d, want 11", end)
	}
}

func BenchmarkDeliveryStep(b *testing.B) {
	a, ok := ChooseVirtualDisks(1000, 5, 0, 5, []int{0, 1, 2, 3, 4})
	if !ok {
		b.Fatal("no assignment")
	}
	del, err := NewDelivery(a, b.N+1, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := del.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChooseVirtualDisks(b *testing.B) {
	free := make([]int, 100)
	for i := range free {
		free[i] = i * 7 % 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ChooseVirtualDisks(1000, 1, 0, 5, free); !ok {
			b.Fatal("infeasible")
		}
	}
}
