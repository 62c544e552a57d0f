package sched

import (
	"math"
	"testing"

	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/vdisk"
)

// spanFree counts, bit by bit, the set bits of the d-bit set free in
// the l circular positions from a on (a may be negative).
func spanFree(free []uint64, d, a, l int) int {
	c := 0
	for i := 0; i < l; i++ {
		v := ((a+i)%d + d) % d
		c += int(free[v>>6] >> uint(v&63) & 1)
	}
	return c
}

// horizonWalk is refusalHorizon's oracle: with lo = base − maxT·step
// and n = maxT·step + m, it admits interval j while the union of the
// spans of intervals 0 … j, [lo − j·step, lo + n), fits in d positions
// and holds fewer than m free ones, counted bit by bit.  With step 0
// every span is the first, and a refused one gets d intervals.
func horizonWalk(free []uint64, d, step, base, maxT, m int) int {
	if maxT < 0 || maxT >= d {
		return 0
	}
	n := maxT*step + m
	if n > d {
		return 0
	}
	lo := base - maxT*step
	if step == 0 {
		if spanFree(free, d, lo, n) < m {
			return d
		}
		return 0
	}
	j := 0
	for n+j*step <= d && spanFree(free, d, lo-j*step, n+j*step) < m {
		j++
	}
	return j
}

// checkHorizon asserts refusalHorizon on one case: it equals
// horizonWalk, and in each interval of the horizon (d at most) the span
// Algorithm 1 counts holds fewer than m free positions and
// vdisk.WalkOrbits refuses the display.  It returns the horizon.
func checkHorizon(t *testing.T, free []uint64, d, k, base, maxT, m int) int {
	t.Helper()
	step := k % d
	j := refusalHorizon(free, d, step, base, maxT, m)
	if want := horizonWalk(free, d, step, base, maxT, m); j != want {
		t.Fatalf("d=%d k=%d base=%d maxT=%d m=%d: refusalHorizon %d, the walk %d (set %x)", d, k, base, maxT, m, j, want, free)
	}
	z, ts := make([]int, m), make([]int, m)
	for u := 0; u < min(j, d); u++ {
		b := ((base-u*step)%d + d) % d
		if c := spanFree(free, d, b-maxT*step, maxT*step+m); c >= m {
			t.Fatalf("d=%d k=%d base=%d maxT=%d m=%d: horizon %d, but interval %d's span holds %d free", d, k, base, maxT, m, j, u, c)
		}
		if _, ok := vdisk.WalkOrbits(free, d, k, b, maxT, z, ts); ok {
			t.Fatalf("d=%d k=%d base=%d maxT=%d m=%d: horizon %d, but Algorithm 1 admits in interval %d", d, k, base, maxT, m, j, u)
		}
	}
	return j
}

// TestRefusalHorizon checks the lease horizon against horizonWalk and
// Algorithm 1 on farms below, at and above one word: nothing free,
// one free run placed at bit 0, either side of each word boundary and
// across the wrap, and random sets of every density; strides of 1, a
// few, d − 1, d (K ≡ 0 mod d) and d + 1; maxT from 0 to 2·m, d − 1 and
// d; and degrees 1, 5, 64 and d.  Spans longer than d get no horizon,
// and the test fails unless it saw horizons that end because the union
// outgrew d, because a free position came into the span, and spans
// that wrap the ring.
func TestRefusalHorizon(t *testing.T) {
	src := rng.NewSource(20261020).Stream("refusal-horizon")
	fitCapped, freeCapped, wrapped, tooLong := 0, 0, 0, 0
	for _, d := range []int{1, 7, 63, 64, 65, 130, 300} {
		for _, m := range []int{1, 5, 64, d} {
			if m > d {
				continue
			}
			sets := [][]uint64{bitsWith(d)}
			starts := []int{0, d - 2, d - 1}
			for w := 64; w < d; w += 64 {
				starts = append(starts, w-1, w)
			}
			for _, s := range starts {
				if s >= 0 {
					sets = append(sets, bitsWith(d, [2]int{s, m}), bitsWith(d, [2]int{s, 3}))
				}
			}
			for i := 0; i < 8; i++ {
				free := make([]uint64, (d+63)/64)
				density := src.Intn(101)
				for v := 0; v < d; v++ {
					if src.Intn(100) < density {
						free[v>>6] |= 1 << uint(v&63)
					}
				}
				sets = append(sets, free)
			}
			for _, k := range []int{1, 3, d - 1, d, d + 1} {
				if k < 1 {
					continue
				}
				step := k % d
				for _, maxT := range []int{0, 1, m, 2 * m, d - 1, d} {
					for _, free := range sets {
						base := src.Intn(d)
						j := checkHorizon(t, free, d, k, base, maxT, m)
						n := maxT*step + m
						switch {
						case n > d:
							tooLong++
						case j > 0 && step > 0 && n+j*step > d:
							fitCapped++
						case j > 0 && step > 0:
							freeCapped++
						}
						if j > 0 && base-maxT*step-(j-1)*step < 0 {
							wrapped++
						}
					}
				}
			}
		}
	}
	if fitCapped == 0 || freeCapped == 0 || wrapped == 0 || tooLong == 0 {
		t.Fatalf("weak coverage: %d horizons ended by the union's length, %d by a free position, %d unions wrapped, %d spans too long",
			fitCapped, freeCapped, wrapped, tooLong)
	}
}

// FuzzRefusalLease is TestRefusalHorizon on fuzzed cases: d up to 320
// disks, k in [1, 2d] (so k mod d covers 0), m in [1, d], maxT in
// [−1, d], any base, and the free set as alternating runs of set and
// clear bits whose lengths the bytes give.  The seeds include a
// horizon whose union wraps the ring, k = d, and a span longer than d.
func FuzzRefusalLease(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{99, 0, 0, 4, 10, 2, 0, 90, 1, 4, 1, 81})              // the union wraps below virtual disk 0
	f.Add([]byte{5, 0, 6, 0, 2, 3, 1, 0, 0, 2})                        // k = d: the span never moves
	f.Add([]byte{199, 1, 200, 0, 60, 120, 7, 0, 1, 30, 2, 30, 1, 200}) // maxT·step + m > d
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		d := 1 + b.next() + b.next()%2*64
		k := 1 + (b.next()|b.next()<<8)%(2*d)
		m := 1 + b.next()%d
		maxT := b.next()%(d+2) - 1
		base := (b.next() | b.next()<<8) % d
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
		checkHorizon(t, free, d, k, base, maxT, m)
	})
}

// TestLeaseEpochWrap checks that admit drops every refusal lease once
// the 32-bit free epoch has wrapped since the last interval: a lease
// that names the current epoch again is not held.
func TestLeaseEpochWrap(t *testing.T) {
	cfg := Table3Config(256, 20, 1)
	cfg.WarmupIntervals, cfg.MeasureIntervals = 0, 400
	e, _, err := NewEngineFor("staggered", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := e.tech.(*stripedTech)
	for i := 0; i < 300; i++ {
		e.step()
	}
	x := &st.idx
	for i := range x.fifos {
		x.fifos[i].epoch, x.fifos[i].until = st.freeEpoch, math.MaxInt32
	}
	st.epochSeen = st.freeEpoch + 1<<31 // as if the counter had wrapped since
	e.step()
	checkStriped(t, e)
	for id := range x.fifos {
		if x.fifos[id].until == math.MaxInt32 {
			t.Fatalf("FIFO %d kept the lease it held when the free epoch wrapped", id)
		}
	}
}
