package cache

import (
	"math"
	"slices"
	"testing"
)

// denseTier is the reference the Tier is checked against: the tier
// with one leader, follower and pending entry per object, a per-object
// prefix-bytes table, and a victim found by a linear scan over the
// residents on (score, id).  Its scores are the Tier's forward-decayed
// sums, landmark rescales included, each weight computed afresh per
// reference; its admission and registry semantics are the Tier's,
// written over dense tables.
type denseTier struct {
	spec      Spec
	prefixLen int
	bytes     []int64
	resident  []bool
	residents []int
	used      int64
	score     []float64
	landmark  float64
	halfLife  float64

	leaderStation, leaderStart, leaderEnd, leaderTmax []int32

	followers [][]int32
	pending   [][]Pending
}

func newDenseTier(spec *Spec, objects, prefixLen int, bytesOf func(int) int64, halfLife float64) *denseTier {
	t := &denseTier{
		spec: *spec, prefixLen: prefixLen, halfLife: halfLife,
		bytes: make([]int64, objects), resident: make([]bool, objects),
		score:         make([]float64, objects),
		leaderStation: make([]int32, objects), leaderStart: make([]int32, objects),
		leaderEnd: make([]int32, objects), leaderTmax: make([]int32, objects),
		followers: make([][]int32, objects), pending: make([][]Pending, objects),
	}
	for id := range t.bytes {
		t.bytes[id] = bytesOf(id)
	}
	return t
}

// victim returns the resident with the lowest (score, id), or -1.
func (t *denseTier) victim() int {
	victim, best := -1, math.Inf(1)
	for _, id := range t.residents {
		if s := t.score[id]; s < best || (s == best && (victim < 0 || id < victim)) {
			victim, best = id, s
		}
	}
	return victim
}

func (t *denseTier) Reference(obj, now int) {
	x := (float64(now) - t.landmark) / t.halfLife
	if x > rescaleAt {
		k := math.Floor(x)
		for id, s := range t.score {
			t.score[id] = math.Ldexp(s, -int(k))
		}
		t.landmark += k * t.halfLife
		x = (float64(now) - t.landmark) / t.halfLife
	}
	t.score[obj] += math.Exp2(x)
	if t.spec.BudgetBytes <= 0 || t.resident[obj] {
		return
	}
	need := t.bytes[obj]
	if need > t.spec.BudgetBytes {
		return
	}
	for t.used+need > t.spec.BudgetBytes {
		victim := t.victim()
		if victim < 0 || t.score[obj] <= t.score[victim] {
			return
		}
		t.resident[victim] = false
		i := slices.Index(t.residents, victim)
		t.residents[i] = t.residents[len(t.residents)-1]
		t.residents = t.residents[:len(t.residents)-1]
		t.used -= t.bytes[victim]
	}
	t.resident[obj] = true
	t.residents = append(t.residents, obj)
	t.used += need
}

func (t *denseTier) AttachGap(obj, now, window int) (int, bool) {
	if int(t.leaderEnd[obj]) <= now {
		return 0, false
	}
	gap := now - int(t.leaderStart[obj])
	if gap < 1 || gap < int(t.leaderTmax[obj]) || gap > window || gap > t.prefixLen || !t.resident[obj] {
		return 0, false
	}
	return gap, true
}

func (t *denseTier) SetLeader(obj int, station int32, start, end, tmax int) {
	t.leaderStation[obj], t.leaderStart[obj] = station, int32(start)
	t.leaderEnd[obj], t.leaderTmax[obj] = int32(end), int32(tmax)
	t.followers[obj] = t.followers[obj][:0]
}

func (t *denseTier) EndLeader(obj, end int) {
	if int(t.leaderEnd[obj]) == end {
		t.leaderEnd[obj] = 0
	}
}

func (t *denseTier) AddFollower(obj int, station int32) {
	t.followers[obj] = append(t.followers[obj], station)
}

func (t *denseTier) RemoveFollower(obj int, station int32) {
	fs := t.followers[obj]
	if i := slices.Index(fs, station); i >= 0 {
		fs[i] = fs[len(fs)-1]
		t.followers[obj] = fs[:len(fs)-1]
	}
}

func (t *denseTier) DetachIfLeader(obj int, station int32, now int, buf []int32) ([]int32, bool) {
	if int(t.leaderEnd[obj]) <= now || t.leaderStation[obj] != station {
		return buf, false
	}
	buf = append(buf, t.followers[obj]...)
	t.followers[obj] = t.followers[obj][:0]
	t.leaderEnd[obj] = 0
	return buf, true
}

func (t *denseTier) AddPending(obj int, station, arrived int32) {
	t.pending[obj] = append(t.pending[obj], Pending{Station: station, Arrived: arrived})
}

func (t *denseTier) TakePending(obj int, buf []Pending) []Pending {
	buf = append(buf, t.pending[obj]...)
	t.pending[obj] = t.pending[obj][:0]
	return buf
}

func (t *denseTier) PendingObjects(buf []int) []int {
	for obj, ps := range t.pending {
		if len(ps) > 0 {
			buf = append(buf, obj)
		}
	}
	return buf
}

func (t *denseTier) Flush() {
	for _, obj := range t.residents {
		t.resident[obj] = false
	}
	t.residents = t.residents[:0]
	t.used = 0
	for obj := range t.leaderEnd {
		t.leaderEnd[obj] = 0
		t.followers[obj] = t.followers[obj][:0]
		t.pending[obj] = t.pending[obj][:0]
		t.score[obj] = 0
	}
	t.landmark = 0
}

// live reports whether obj has registry state in the dense tier: a
// registered leader, a follower or a pending request.
func (t *denseTier) live(obj int) bool {
	return t.leaderEnd[obj] != 0 || len(t.followers[obj]) > 0 || len(t.pending[obj]) > 0
}

// FuzzTierRegistry runs random sequences of the tier's calls on the
// Tier and on denseTier side by side, with a clock that retires each
// leader at its end the way the engine's follower ring does
// (EndLeader) and that now and then jumps hundreds of half-lives, past
// the rescale bound.  Leaders register at the current interval, as the
// engine's do, and a RemoveFollower passes the interval of its
// station's last AddFollower for the object or one to two later; the
// dense tier always scans.  Every return must match, follower order
// included; after every call both tiers must hold the same scores, the
// same victim, the same pins, the same leader, followers and pending
// batch for every object, and the Tier must hold a claimed slot for
// exactly the objects with registry state, so the live slot count
// never exceeds them.  The Tier's own invariants (Check: heap order,
// position table, residents, bytes used) must hold after every call.
// The residency callback must fire for every pin and unpin, and only
// then.
func FuzzTierRegistry(f *testing.F) {
	f.Add(uint8(6), uint16(100), []byte{0, 1, 0, 1, 1, 3, 2, 1, 4, 2, 1, 5, 9, 0, 3, 3, 1, 0, 4, 1, 7})
	f.Add(uint8(3), uint16(30), []byte{5, 2, 1, 5, 2, 2, 1, 2, 0, 6, 2, 0, 7, 0, 0, 9, 1, 9, 8, 0, 0, 5, 1, 1})
	f.Add(uint8(12), uint16(400), []byte{0, 3, 0, 0, 3, 1, 1, 3, 7, 10, 3, 2, 2, 3, 4, 2, 3, 5, 9, 0, 2, 10, 3, 6, 3, 3, 1, 4, 3, 0, 8, 0, 0, 1, 3, 1})
	// Objects 0 and 3 pin 20 bytes each of a 60-byte budget; object 1
	// (40 bytes) out-scores them on its second reference and evicts
	// object 0, and the flush unpins the rest.
	f.Add(uint8(3), uint16(60), []byte{0, 0, 0, 0, 3, 0, 0, 1, 0, 0, 1, 0, 8, 0, 0})
	// A pending request keeps object 2's slot through a follower
	// removal, a leader's end and a detach that find nothing else.
	f.Add(uint8(5), uint16(0), []byte{5, 2, 1, 3, 2, 1, 1, 2, 0, 9, 2, 3, 4, 2, 0, 7, 0, 0})
	// Equal scores: objects 0 and 3 (20 bytes each of a 40-byte budget)
	// and object 1 (40 bytes) are referenced in one interval, so their
	// scores tie, and object 1's first reference is refused against the
	// victim, object 0.  Its second evicts both.  An interval on,
	// objects 0 and 3 come back with equal scores, with object 0, the
	// lower id, on top; a second reference sifts object 0 below object
	// 3, and object 1's next reference evicts object 3 and is then
	// refused by object 0.
	f.Add(uint8(3), uint16(40), []byte{0, 0, 0, 0, 3, 0, 0, 1, 0, 0, 1, 0, 9, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 1, 0})
	// Rescale crossings: a jump of 640 half-lives rescales at the next
	// reference, where the resident with one old reference loses to one
	// fresh one; a jump of 1280 more underflows every old score to
	// zero, where the tie evicts the lower id first.
	f.Add(uint8(3), uint16(60), []byte{0, 0, 0, 0, 0, 0, 0, 3, 0, 9, 0, 247, 0, 1, 0, 9, 0, 255, 0, 2, 0, 9, 0, 255, 0, 0, 0, 0, 3, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, objects uint8, budget uint16, ops []byte) {
		n := 1 + int(objects)%16
		spec := &Spec{BudgetBytes: int64(budget), BatchWindow: 6}
		degrees := make([]int, n)
		for i := range degrees {
			degrees[i] = 1 + (i*7+int(objects))%3
		}
		bytesOf := func(degree int) int64 { return int64(20 * degree) }
		tr := NewTier(spec, n, 4, degrees, 2, bytesOf, 5)
		ref := newDenseTier(spec, n, 4, func(id int) int64 { return bytesOf(degrees[id]) }, 5)
		flips := map[int]bool{}
		tr.OnResidencyChange(func(obj int) { flips[obj] = true })

		type leaderEnd struct{ obj, end int }
		var ends []leaderEnd // scheduled EndLeader calls, in scheduling order
		now := 0
		var gotF, wantF []int32
		var gotP, wantP []Pending
		var gotO, wantO []int
		var joined [16][8]int // (object, station) -> interval of its last AddFollower
		for i := 0; i+2 < len(ops) && i < 600; i += 3 {
			op, obj, arg := ops[i]%11, int(ops[i+1])%n, int(ops[i+2])
			station := int32(arg % 8)
			before := slices.Clone(ref.resident)
			clear(flips)
			switch op {
			case 0:
				tr.Reference(obj, now)
				ref.Reference(obj, now)
			case 1:
				end := now + 1 + arg%12
				tr.SetLeader(obj, station, now, end, arg%4)
				ref.SetLeader(obj, station, now, end, arg%4)
				ends = append(ends, leaderEnd{obj, end})
			case 2:
				tr.AddFollower(obj, station)
				ref.AddFollower(obj, station)
				joined[obj][station] = now
			case 3:
				if fs := ref.followers[obj]; len(fs) > 0 && arg%4 != 0 {
					station = fs[arg%len(fs)]
				}
				tr.RemoveFollower(obj, station, joined[obj][station]+arg%3)
				ref.RemoveFollower(obj, station)
			case 4:
				if arg%3 != 0 {
					station = ref.leaderStation[obj]
				}
				var gotOK, wantOK bool
				gotF, gotOK = tr.DetachIfLeader(obj, station, now, gotF[:0])
				wantF, wantOK = ref.DetachIfLeader(obj, station, now, wantF[:0])
				if gotOK != wantOK || !slices.Equal(gotF, wantF) {
					t.Fatalf("op %d: DetachIfLeader(%d, %d) = %v, %v; dense %v, %v", i/3, obj, station, gotF, gotOK, wantF, wantOK)
				}
			case 5:
				tr.AddPending(obj, station, int32(now))
				ref.AddPending(obj, station, int32(now))
			case 6:
				gotP = tr.TakePending(obj, gotP[:0])
				wantP = ref.TakePending(obj, wantP[:0])
				if !slices.Equal(gotP, wantP) {
					t.Fatalf("op %d: TakePending(%d) = %v; dense %v", i/3, obj, gotP, wantP)
				}
			case 7:
				gotO, wantO = tr.PendingObjects(gotO[:0]), ref.PendingObjects(wantO[:0])
				if !slices.Equal(gotO, wantO) {
					t.Fatalf("op %d: PendingObjects = %v; dense %v", i/3, gotO, wantO)
				}
			case 8:
				tr.Flush()
				ref.Flush()
			case 9:
				if arg >= 240 {
					now += (arg - 239) * 400 // 80 to 1280 half-lives
				} else {
					now += 1 + arg%4
				}
				kept := ends[:0]
				for _, le := range ends {
					if le.end <= now {
						tr.EndLeader(le.obj, le.end)
						ref.EndLeader(le.obj, le.end)
					} else {
						kept = append(kept, le)
					}
				}
				ends = kept
			case 10:
				g, gok := tr.AttachGap(obj, now, arg%8)
				w, wok := ref.AttachGap(obj, now, arg%8)
				if g != w || gok != wok {
					t.Fatalf("op %d: AttachGap(%d, %d, %d) = %d, %v; dense %d, %v", i/3, obj, now, arg%8, g, gok, w, wok)
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			if tr.Used() != ref.used || len(tr.heap) != len(ref.residents) {
				t.Fatalf("op %d: used %d, %d residents; dense %d, %d", i/3, tr.Used(), len(tr.heap), ref.used, len(ref.residents))
			}
			if v, w := tr.victim(), ref.victim(); v != w {
				t.Fatalf("op %d: victim %d; dense %d", i/3, v, w)
			}
			if !slices.Equal(tr.score, ref.score) {
				t.Fatalf("op %d: scores %v; dense %v", i/3, tr.score, ref.score)
			}
			live := 0
			for id := 0; id < n; id++ {
				if tr.Resident(id) != ref.resident[id] || tr.Bytes(id) != ref.bytes[id] || pendingCount(tr, id) != len(ref.pending[id]) {
					t.Fatalf("op %d: object %d resident %v, %d bytes, %d pending; dense %v, %d, %d", i/3, id,
						tr.Resident(id), tr.Bytes(id), pendingCount(tr, id), ref.resident[id], ref.bytes[id], len(ref.pending[id]))
				}
				if flips[id] != (before[id] != ref.resident[id]) {
					t.Fatalf("op %d: object %d went from resident %v to %v, the callback fired: %v", i/3, id, before[id], ref.resident[id], flips[id])
				}
				s := tr.slot[id]
				if (s >= 0) != ref.live(id) {
					t.Fatalf("op %d: object %d has slot %d, dense registry state %v", i/3, id, s, ref.live(id))
				}
				if s < 0 {
					continue
				}
				live++
				r := tr.slots[s]
				if r.end != ref.leaderEnd[id] || r.end != 0 && (r.station != ref.leaderStation[id] || r.start != ref.leaderStart[id] || r.tmax != ref.leaderTmax[id]) {
					t.Fatalf("op %d: object %d leader %+v; dense station %d, start %d, end %d, tmax %d", i/3, id, r,
						ref.leaderStation[id], ref.leaderStart[id], ref.leaderEnd[id], ref.leaderTmax[id])
				}
				if !slices.Equal(r.followers, ref.followers[id]) || !slices.Equal(r.pending, ref.pending[id]) {
					t.Fatalf("op %d: object %d followers %v, pending %v; dense %v, %v", i/3, id, r.followers, r.pending, ref.followers[id], ref.pending[id])
				}
			}
			if claimed := len(tr.slots) - len(tr.free); claimed != live {
				t.Fatalf("op %d: %d slots claimed, %d objects hold one", i/3, claimed, live)
			}
		}
	})
}
