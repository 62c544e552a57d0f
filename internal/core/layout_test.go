package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustLayout(t testing.TB, d, k int) Layout {
	t.Helper()
	l, err := NewLayout(d, k)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustPlacement(t testing.TB, l Layout, first, m, n int) Placement {
	t.Helper()
	p, err := NewPlacement(l, first, m, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewLayoutValidation(t *testing.T) {
	if _, err := NewLayout(0, 1); err == nil {
		t.Error("D=0 accepted")
	}
	if _, err := NewLayout(10, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewLayout(10, 11); err == nil {
		t.Error("k>D accepted")
	}
	if _, err := NewLayout(10, 10); err != nil {
		t.Errorf("k=D rejected: %v", err)
	}
}

func TestSimpleStripingConstructor(t *testing.T) {
	l, err := SimpleStriping(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.K != 3 || l.Clusters(3) != 3 {
		t.Fatalf("simple striping 9/3 gave %+v", l)
	}
	if _, err := SimpleStriping(10, 3); err == nil {
		t.Error("non-divisible D/M accepted")
	}
	if _, err := SimpleStriping(10, 0); err == nil {
		t.Error("M=0 accepted")
	}
}

// TestVirtualReplicationConstructor checks that virtual data
// replication is the stride k = D layout.
func TestVirtualReplicationConstructor(t *testing.T) {
	l, err := NewLayout(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if l.StartDiskOrbit() != 1 {
		t.Fatal("k=D must pin all subobjects to one start disk")
	}
}

// TestFigure1Placement checks the simple-striping layout of Figure 1:
// 9 disks, M_X = 3, X_0 on cluster 0 (disks 0–2), X_1 on cluster 1
// (disks 3–5), X_2 on cluster 2 (disks 6–8), X_3 wraps to cluster 0.
func TestFigure1Placement(t *testing.T) {
	l := mustLayout(t, 9, 3)
	p := mustPlacement(t, l, 0, 3, 100)
	cases := []struct{ sub, frag, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 2},
		{1, 0, 3}, {1, 1, 4}, {1, 2, 5},
		{2, 0, 6}, {2, 2, 8},
		{3, 0, 0}, // wraps around
	}
	for _, c := range cases {
		if got := p.Disk(c.sub, c.frag); got != c.want {
			t.Errorf("X%d.%d on disk %d, want %d", c.sub, c.frag, got, c.want)
		}
	}
}

// TestFigure5Placement checks the exact cell assignments of Figure 5:
// 12 disks, stride 1, Y (M=4) from disk 0, X (M=3) from disk 4,
// Z (M=2) from disk 7.
func TestFigure5Placement(t *testing.T) {
	objs, err := Figure5Placements(13)
	if err != nil {
		t.Fatal(err)
	}
	y, x, z := objs[0].P, objs[1].P, objs[2].P

	// Row 0 of the figure.
	for i := 0; i < 4; i++ {
		if got := y.Disk(0, i); got != i {
			t.Errorf("Y0.%d on disk %d, want %d", i, got, i)
		}
	}
	for i := 0; i < 3; i++ {
		if got := x.Disk(0, i); got != 4+i {
			t.Errorf("X0.%d on disk %d, want %d", i, got, 4+i)
		}
	}
	for i := 0; i < 2; i++ {
		if got := z.Disk(0, i); got != 7+i {
			t.Errorf("Z0.%d on disk %d, want %d", i, got, 7+i)
		}
	}
	// Wrap-around cells visible in the figure.
	if got := z.Disk(4, 1); got != 0 { // Z4.1 on disk 0
		t.Errorf("Z4.1 on disk %d, want 0", got)
	}
	if got := z.Disk(5, 0); got != 0 { // Z5.0 on disk 0
		t.Errorf("Z5.0 on disk %d, want 0", got)
	}
	if got := x.Disk(8, 0); got != 0 { // X8.0 on disk 0
		t.Errorf("X8.0 on disk %d, want 0", got)
	}
	if got := y.Disk(12, 0); got != 0 { // Y12.0 on disk 0
		t.Errorf("Y12.0 on disk %d, want 0", got)
	}
	if got := y.Disk(9, 3); got != 0 { // Y9.3 on disk 0
		t.Errorf("Y9.3 on disk %d, want 0", got)
	}
}

// TestSection322UniqueDisks reproduces §3.2.2: "assume D=100 and an
// object X consist of 100 cylinders (M_X = 4).  With k = M_X, X is
// spread across all the D disk drives.  However, with k = 1, X is
// spread across 28 disk drives."  100 cylinders at one cylinder per
// fragment and M=4 is 25 subobjects.
func TestSection322UniqueDisks(t *testing.T) {
	const n = 25 // 100 fragments / M=4
	k1 := mustPlacement(t, mustLayout(t, 100, 1), 0, 4, n)
	if got := k1.UniqueDisks(); got != 28 {
		t.Errorf("k=1 unique disks = %d, want 28", got)
	}
	k4 := mustPlacement(t, mustLayout(t, 100, 4), 0, 4, n)
	if got := k4.UniqueDisks(); got != 100 {
		t.Errorf("k=M unique disks = %d, want 100 (all)", got)
	}
}

// TestSection322Extremes checks the k=1 vs k=D discussion: with k=D
// all subobjects land on the same M disks; with k=1 a long object
// visits all D disks.
func TestSection322Extremes(t *testing.T) {
	d := 10
	pD := mustPlacement(t, mustLayout(t, d, d), 0, 4, 500)
	if got := pD.UniqueDisks(); got != 4 {
		t.Errorf("k=D unique disks = %d, want M=4", got)
	}
	p1 := mustPlacement(t, mustLayout(t, d, 1), 0, 4, 500)
	if got := p1.UniqueDisks(); got != d {
		t.Errorf("k=1 unique disks = %d, want D=%d", got, d)
	}
}

// TestSkewFree checks §3.2.2's skew-free condition: the start disks of
// a long object's subobjects visit every disk exactly when
// gcd(D, k) = 1.
func TestSkewFree(t *testing.T) {
	cases := []struct {
		d, k int
		want bool
	}{
		{10, 1, true},   // stride 1 always skew-free
		{10, 3, true},   // relatively prime
		{10, 5, false},  // gcd 5
		{10, 10, false}, // virtual replication maximally skewed
		{1000, 5, false},
		{7, 7, false},
	}
	for _, c := range cases {
		l := mustLayout(t, c.d, c.k)
		if got := l.StartDiskOrbit() == c.d; got != c.want {
			t.Errorf("D=%d, k=%d: start-disk orbit %d covers every disk = %v, want %v", c.d, c.k, l.StartDiskOrbit(), got, c.want)
		}
	}
}

func TestStartDiskOrbit(t *testing.T) {
	if got := mustLayout(t, 1000, 5).StartDiskOrbit(); got != 200 {
		t.Errorf("orbit(1000,5) = %d, want 200", got)
	}
	if got := mustLayout(t, 10, 3).StartDiskOrbit(); got != 10 {
		t.Errorf("orbit(10,3) = %d, want 10", got)
	}
}

// Property: the difference-array footprint equals brute-force
// counting for arbitrary placements.
func TestFragmentsPerDiskMatchesBruteForce(t *testing.T) {
	err := quick.Check(func(dRaw, kRaw, firstRaw, mRaw, nRaw uint8) bool {
		d := int(dRaw%30) + 1
		k := int(kRaw)%d + 1
		m := int(mRaw)%d + 1
		n := int(nRaw%50) + 1
		first := int(firstRaw) % d
		l := Layout{D: d, K: k}
		p, err := NewPlacement(l, first, m, n)
		if err != nil {
			return false
		}
		want := make([]int, d)
		for s := 0; s < n; s++ {
			for i := 0; i < m; i++ {
				want[p.Disk(s, i)]++
			}
		}
		got := p.FragmentsPerDisk()
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: total footprint equals N·M regardless of layout.
func TestFootprintConservation(t *testing.T) {
	err := quick.Check(func(dRaw, kRaw, mRaw, nRaw uint8) bool {
		d := int(dRaw%64) + 1
		k := int(kRaw)%d + 1
		m := int(mRaw)%d + 1
		n := int(nRaw) + 1
		p, err := NewPlacement(Layout{D: d, K: k}, 0, m, n)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range p.FragmentsPerDisk() {
			total += c
		}
		return total == p.TotalFragments()
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: gcd(D,k)=1 implies storage balance within one fragment for
// long objects — the §3.2.2 skew guarantee.
func TestCoprimeStrideBalanced(t *testing.T) {
	err := quick.Check(func(dRaw, kRaw uint8) bool {
		d := int(dRaw%40) + 2
		k := int(kRaw)%d + 1
		if gcd(d, k) != 1 {
			return true // only the coprime guarantee is claimed
		}
		// Whole number of orbits: n = 3·D subobjects.
		p, err := NewPlacement(Layout{D: d, K: k}, 1%d, 2, 3*d)
		if err != nil {
			return false
		}
		counts := p.FragmentsPerDisk()
		for _, c := range counts {
			if c != counts[0] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: with k=D (virtual replication) every disk outside the
// cluster holds nothing.
func TestVirtualReplicationFootprint(t *testing.T) {
	p := mustPlacement(t, mustLayout(t, 20, 20), 3, 4, 123)
	counts := p.FragmentsPerDisk()
	for d, c := range counts {
		inCluster := d >= 3 && d < 7
		if inCluster && c != 123 {
			t.Errorf("disk %d holds %d fragments, want 123", d, c)
		}
		if !inCluster && c != 0 {
			t.Errorf("disk %d outside cluster holds %d fragments", d, c)
		}
	}
}

func TestPlacementValidation(t *testing.T) {
	l := mustLayout(t, 10, 1)
	if _, err := NewPlacement(l, -1, 2, 5); err == nil {
		t.Error("negative first disk accepted")
	}
	if _, err := NewPlacement(l, 10, 2, 5); err == nil {
		t.Error("first disk = D accepted")
	}
	if _, err := NewPlacement(l, 0, 0, 5); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := NewPlacement(l, 0, 11, 5); err == nil {
		t.Error("M>D accepted")
	}
	if _, err := NewPlacement(l, 0, 2, 0); err == nil {
		t.Error("N=0 accepted")
	}
}

func TestDiskPanicsOutOfRange(t *testing.T) {
	p := mustPlacement(t, mustLayout(t, 10, 1), 0, 2, 5)
	for _, fn := range []func(){
		func() { p.Disk(-1, 0) },
		func() { p.Disk(5, 0) },
		func() { p.Disk(0, -1) },
		func() { p.Disk(0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range Disk access did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestSpan checks that a subobject's M fragments occupy consecutive
// disks and wrap around the ring.
func TestSpan(t *testing.T) {
	l := mustLayout(t, 12, 1)
	want := []int{11, 0, 1, 2}
	for i, w := range want {
		if got := l.Disk(10, 1, i); got != w {
			t.Fatalf("Disk(10, 1, %d) = %d, want %d", i, got, w)
		}
	}
}

func TestGridCollisionDetection(t *testing.T) {
	l := mustLayout(t, 6, 1)
	a := mustPlacement(t, l, 0, 3, 2)
	b := mustPlacement(t, l, 2, 3, 2) // overlaps a at subobject 0, disk 2
	if _, err := Grid(6, 2, []NamedPlacement{{"A", a}, {"B", b}}); err == nil {
		t.Fatal("overlapping placements not detected")
	}
}

func TestFigureRenderings(t *testing.T) {
	f1, err := Figure1(4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f1, "X0.0") || !strings.Contains(f1, "X3.0") {
		t.Errorf("Figure 1 rendering missing cells:\n%s", f1)
	}
	f4, err := Figure4(8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f4, "X7.0") {
		t.Errorf("Figure 4 rendering missing cells:\n%s", f4)
	}
	f5, err := Figure5(13)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []string{"Y0.0", "X0.0", "Z0.0", "Y12.0", "Z5.1"} {
		if !strings.Contains(f5, cell) {
			t.Errorf("Figure 5 rendering missing %s:\n%s", cell, f5)
		}
	}
}

func BenchmarkFragmentsPerDisk(b *testing.B) {
	p := mustPlacement(b, mustLayout(b, 1000, 5), 0, 5, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.FragmentsPerDisk()
	}
}

func BenchmarkDiskMapping(b *testing.B) {
	p := mustPlacement(b, mustLayout(b, 1000, 5), 0, 5, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Disk(i%3000, i%5)
	}
}
