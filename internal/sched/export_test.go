package sched

import "github.com/mmsim/staggered/internal/core"

// AdmissionWork is a snapshot of an engine's admission work counters,
// for tests outside the package.
type AdmissionWork struct {
	Touched  int // queue entries the striped admission examined
	Prefix   int // of Touched: entries the staggered prefix walked
	Windows  int // ready FIFOs visited with a free window
	FIFOs    int // FIFOs the indexed probe visited
	Indexed  int // indexed probes run
	Skipped  int // indexed probes skipped: no window could be free
	Leased   int // of Prefix: entries a held refusal lease answered
	Admitted int // displays admitted, lifetime
	Requests int // references recorded in the current window
	Busy     int // busy virtual disks now
}

// AdmissionWork returns the striped technique's counters; it panics on
// other techniques.
func (e *Engine) AdmissionWork() AdmissionWork {
	st := e.tech.(*stripedTech)
	return AdmissionWork{
		Touched:  st.work.touched,
		Prefix:   st.work.prefix,
		Windows:  st.work.windows,
		FIFOs:    st.work.fifos,
		Indexed:  st.work.indexed,
		Skipped:  st.work.skipped,
		Leased:   st.work.leased,
		Admitted: e.admittedTotal,
		Requests: e.win.Requests,
		Busy:     st.busy,
	}
}

// CoalesceWork is a snapshot of an engine's Algorithm 2 work counters,
// for tests outside the package.
type CoalesceWork struct {
	Visited  int // waiter-list entries walked, stale ones included
	Moves    int // streams moved to their ideal disk, lifetime
	Releases int // release entries booked, lifetime
	Buffered int // streams started ahead of their display (T_i < Tmax), lifetime
}

// CoalesceWork returns the striped technique's Algorithm 2 counters; it
// panics on other techniques.  Buffered is counted from the arena, not
// from start: a stream started ahead of its display either moved
// (Moves) or still has T_i < Tmax in its slot, since fragmented slots
// are never recycled and a contiguous display buffers no stream.
func (e *Engine) CoalesceWork() CoalesceWork {
	st := e.tech.(*stripedTech)
	w := CoalesceWork{Visited: st.cwork.visited, Moves: st.cwork.moves, Releases: st.cwork.releases, Buffered: st.cwork.moves}
	for d, tmax := range st.dTmax {
		for si := d * st.stride; si < d*st.stride+int(st.dM[d]); si++ {
			if st.sT[si] < tmax {
				w.Buffered++
			}
		}
	}
	return w
}

// shiftSeq renumbers the queued requests as if the queue head had
// waited through billions of enqueues: the head keeps 3·2^31 + 12345,
// an absolute number above 2^32 that no multiple of 2^32 aligns, and
// the requests behind it end just below nextSeq, which is moved on to
// seqSpan − margin above the head's.  The order of the queued requests
// is unchanged, the keys of every FIFO head but the queue head's lie
// near the span the keys pack, and margin more enqueues reach it while
// the head waits.  The queue must not be empty.
func shiftSeq(st *stripedTech, margin uint64) {
	x, q := &st.idx, &st.eng.queue
	x.seq[q.head] = 3<<31 + 12345
	x.nextSeq = x.seq[q.head] + seqSpan - margin
	n := x.nextSeq - uint64(q.n-1)
	for s := q.node[q.head].next; s >= 0; s = q.node[s].next {
		x.seq[s] = n
		n++
	}
}

// PreloadedStore returns the striped technique's store and the ids its
// bind offered the preload, in order, for comparison with a store that
// places the same ids one Place at a time.
func (e *Engine) PreloadedStore() (*core.Store, []int) {
	st := e.tech.(*stripedTech)
	return st.store, st.preloadIDs()
}

// ReadyFIFO returns the first disk and degree of object id's ready
// FIFO; ok is false when the object has none.
func (e *Engine) ReadyFIFO(id int) (first, degree int, ok bool) {
	st := e.tech.(*stripedTech)
	if st.fifo[id] < 0 {
		return 0, 0, false
	}
	f := st.idx.fifos[st.fifo[id]]
	return int(f.first), int(f.degree), true
}

// The helpers the open-workload tests share with this package's own.
// Those tests run through cluster.New, the one driver that draws open
// arrivals, which a package cluster imports cannot import back.
var (
	SmallConfig     = smallConfig
	CacheSpec       = cacheSpec
	CheckGoldenDump = checkGoldenDump
)
