package sched

import (
	"slices"
	"testing"

	"github.com/mmsim/staggered/internal/rng"
)

// freeRunWalk is hasFreeRun's oracle: one bit at a time, twice round
// the d-bit set, it counts the set bits in a row and reports whether
// the count reaches m.  Every circular run of m ≤ d bits starts in the
// first lap and ends in the second.
func freeRunWalk(free []uint64, d, m int) bool {
	run := 0
	for i := 0; i < 2*d; i++ {
		v := i % d
		if free[v>>6]&(1<<uint(v&63)) == 0 {
			run = 0
		} else if run++; run >= m {
			return true
		}
	}
	return false
}

// bitsWith returns a d-bit set holding the set bits of the circular
// runs (start, length), lengths at most d.
func bitsWith(d int, runs ...[2]int) []uint64 {
	free := make([]uint64, (d+63)/64)
	for _, r := range runs {
		for j := 0; j < r[1]; j++ {
			v := (r[0] + j) % d
			free[v>>6] |= 1 << uint(v&63)
		}
	}
	return free
}

// TestHasFreeRun checks the word-parallel run scan against
// freeRunWalk: farms below, at and above one word, multiples of 64
// and not; one run of every length about m placed at bit 0, either
// side of every word boundary and across the wrap, alone and as the
// only gap in an otherwise set farm; every bit set and none; and
// random sets of every density.  m is 1, 2, 63, 64, 65, a random
// value, d−1 and d, where they fit.
func TestHasFreeRun(t *testing.T) {
	src := rng.NewSource(20261020).Stream("free-runs")
	crossWord, crossWrap := 0, 0
	for _, d := range []int{1, 2, 5, 63, 64, 65, 100, 127, 128, 129, 191, 192, 300} {
		var ms []int
		for _, m := range []int{1, 2, 63, 64, 65, 1 + src.Intn(d), d - 1, d} {
			if m >= 1 && m <= d && !slices.Contains(ms, m) {
				ms = append(ms, m)
			}
		}
		starts := []int{0, 1, d / 2, d - 1}
		for w := 64; w < d; w += 64 {
			starts = append(starts, w-2, w-1, w, w+1)
		}
		check := func(free []uint64, m int, what string) bool {
			t.Helper()
			want := freeRunWalk(free, d, m)
			if got := hasFreeRun(free, d, m); got != want {
				t.Fatalf("d=%d m=%d %s: hasFreeRun %v, the walk %v (set %x)", d, m, what, got, want, free)
			}
			return want
		}
		for _, m := range ms {
			check(bitsWith(d), m, "no bit set")
			check(bitsWith(d, [2]int{0, d}), m, "every bit set")
			for _, l := range []int{m - 1, m, m + 1, d - 1} {
				if l < 1 || l > d {
					continue
				}
				for _, s := range starts {
					s %= d
					// The run alone, then the run's complement: every bit
					// set but the run.
					found := check(bitsWith(d, [2]int{s, l}), m, "one run")
					check(bitsWith(d, [2]int{(s + l) % d, d - l}), m, "one gap")
					if found && s+l > d {
						crossWrap++
					}
					if found && s>>6 != (s+l-1)>>6 && s+l <= d {
						crossWord++
					}
				}
			}
			for i := 0; i < 40; i++ {
				free := make([]uint64, (d+63)/64)
				density := src.Intn(101)
				for v := 0; v < d; v++ {
					if src.Intn(100) < density {
						free[v>>6] |= 1 << uint(v&63)
					}
				}
				check(free, m, "random set")
			}
		}
	}
	if crossWord == 0 || crossWrap == 0 {
		t.Fatalf("weak coverage: %d runs found across a word boundary, %d across the wrap", crossWord, crossWrap)
	}
}

// FuzzHasFreeRun is TestHasFreeRun on fuzzed sets: d up to 320 disks,
// m in [1, d], and the bits as alternating runs of set and clear bits
// whose lengths the bytes give, so long runs cross word boundaries and
// the wrap.
func FuzzHasFreeRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{64, 0, 5, 0, 60, 3, 8})
	f.Add([]byte{44, 1, 130, 1, 0, 70, 2, 90})
	f.Add([]byte{255, 1, 63, 1, 2, 80, 1, 80, 1, 80})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		d := 1 + b.next() + b.next()%2*64
		m := 1 + b.next()%d
		set := b.next()%2 == 1
		free := make([]uint64, (d+63)/64)
		for v := 0; v < d; {
			n := 1 + b.next()%96
			if len(b) == 0 {
				n = d
			}
			for ; n > 0 && v < d; n, v = n-1, v+1 {
				if set {
					free[v>>6] |= 1 << uint(v&63)
				}
			}
			set = !set
		}
		if got, want := hasFreeRun(free, d, m), freeRunWalk(free, d, m); got != want {
			t.Fatalf("d=%d m=%d: hasFreeRun %v, the walk %v (set %x)", d, m, got, want, free)
		}
	})
}

// TestSortKeys checks sortKeys against slices.Sort on random candidate
// keys: distinct high 32 bits, any low 32 bits, counts either side of
// radixMin, and high words bounded so the radix needs one to four byte
// passes, 2³²−1 among them in the widest.  The spare buffer each call
// returns is the one the next call gets, as admitIndexed passes it, and
// must not share the sorted keys' array.
func TestSortKeys(t *testing.T) {
	src := rng.NewSource(20261020).Stream("sort-keys")
	var spare []uint64
	for passes := 1; passes <= 4; passes++ {
		limit := uint64(1)<<(8*passes) - 1
		for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 255, 256, 1000, 5000} {
			n = min(n, int(limit)+1)
			for rep := 0; rep < 3; rep++ {
				high := make(map[uint64]bool, n)
				keys := make([]uint64, 0, n)
				add := func(h uint64) {
					if !high[h] {
						high[h] = true
						keys = append(keys, h<<32|src.Uint64()&(1<<32-1))
					}
				}
				if n > 1 {
					add(limit) // the widest distance sets the pass count
				}
				for len(keys) < n {
					add(src.Uint64() & limit)
				}
				want := slices.Clone(keys)
				slices.Sort(want)
				var got []uint64
				got, spare = sortKeys(keys, spare)
				if !slices.Equal(got, want) {
					t.Fatalf("%d keys below 2^%d: sortKeys differs from slices.Sort", n, 32+8*passes)
				}
				if len(got) > 0 && cap(spare) > 0 && &got[:1][0] == &spare[:1][0] {
					t.Fatalf("%d keys below 2^%d: the spare buffer is the sorted keys' array", n, 32+8*passes)
				}
			}
		}
	}
}

// TestStripedAdmissionMatchesScanWide is TestStripedAdmissionMatchesScan
// on farms that span several words of the free bitset: 65 to 300 disks
// and degrees up to 120, so the free-run scan crosses word boundaries
// and the wrap, and the smallest degree can exceed one word.  The
// indexed path must admit and refuse exactly what the full queue scan
// does, in the same intervals and order, and end in the same Result.
func TestStripedAdmissionMatchesScanWide(t *testing.T) {
	const cases = 120
	shape := farmShape{minD: 65, spanD: 236, maxM: 120}
	src := rng.NewSource(20261020).Stream("wide-admission-cases")
	ran, admitted, wide, skipped, windows, wideSkip := 0, 0, 0, 0, 0, 0
	for i := 0; i < cases; i++ {
		data := make([]byte, 64)
		for j := range data {
			data[j] = byte(src.Intn(256))
		}
		c := farmCaseFrom(data, shape)
		run, ok := compareRuns(t, c, useFullScan)
		if !ok {
			continue
		}
		ran++
		admitted += len(run.admits)
		for _, a := range run.admits {
			if c.cfg.Degree(a[2]) > 64 {
				wide++
			}
		}
		skipped += run.work.skipped
		windows += run.work.windows
		if minDegree, _ := c.cfg.degreeRange(); minDegree > 64 && run.work.skipped > 0 {
			wideSkip++
		}
	}
	t.Logf("%d of %d cases ran: %d admissions, %d of degree above 64, %d probes skipped, %d free windows, %d cases skipped with a smallest degree above 64",
		ran, cases, admitted, wide, skipped, windows, wideSkip)
	if ran < cases/2 || admitted < 20*ran || wide == 0 || skipped == 0 || windows == 0 || wideSkip == 0 {
		t.Fatalf("weak coverage: %d of %d cases ran, %d admissions, %d of degree above 64, %d probes skipped, %d free windows, %d cases skipped with a smallest degree above 64",
			ran, cases, admitted, wide, skipped, windows, wideSkip)
	}
}
